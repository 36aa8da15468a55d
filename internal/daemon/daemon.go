// Package daemon is ubacd's composition root. Start runs the paper's
// configuration step once and refuses a configuration that does not
// verify; it then serves run-time admission over HTTP and the binary
// wire transport, both codecs over one admission controller.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"ubac/internal/admission"
	"ubac/internal/cluster"
	"ubac/internal/config"
	"ubac/internal/core"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

// Deps is what Start takes from its caller besides the Config.
type Deps struct {
	// HTTP and Wire are listeners already bound for the two transports;
	// nil listens on the Config's address (Wire only if it has one).
	HTTP, Wire net.Listener
	Log        *log.Logger // the boot, cluster and shutdown lines
}

// Daemon is a configured, serving ubacd.
type Daemon struct {
	log     *log.Logger
	ctrl    *admission.Controller
	sink    *telemetry.RegistrySink
	wal     *wal.Log
	node    *cluster.Node
	http    *http.Server
	wire    *wire.Server
	errs    chan error     // a serve error; one slot per transport, so no send blocks
	serving sync.WaitGroup // the transports' serve goroutines
}

// Start configures cfg's network, installs the controller's sink, policy
// and journal, joins the cluster if cfg names one, and serves. cfg must
// have passed Check. A ctx cancelled during the configuration step stops
// the boot before anything listens.
func Start(ctx context.Context, cfg Config, deps Deps) (_ *Daemon, err error) {
	d := &Daemon{log: deps.Log, errs: make(chan error, 2)}
	defer func() {
		if err != nil && d.wal != nil {
			d.wal.Close()
		}
	}()
	policyCfg := cfg.Policy
	if policyCfg == nil {
		policyCfg = &config.PolicyConfig{Kind: "always_admit"}
	}
	var clusterCfg *config.ClusterConfig
	if cfg.Cluster != "" {
		if clusterCfg, err = config.ParseClusterSpec(cfg.Cluster); err != nil {
			return nil, err
		}
	}

	topo, err := topology.Parse(cfg.Topology)
	if err != nil {
		return nil, err
	}
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(topo, classes)
	if err != nil {
		return nil, err
	}

	// One registry + audit ring for the whole process: the configuration
	// step's fixed-point solves and every run-time decision land in it.
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(cfg.Events)
	d.sink = telemetry.NewRegistrySink(reg, ring)
	sys.Model().Sink = d.sink

	alpha := cfg.Alphas[servedClass]
	configStart := time.Now()
	dep, err := sys.Configure(map[string]float64{servedClass: alpha})
	if err != nil {
		return nil, fmt.Errorf("configure: %w", err)
	}
	configElapsed := time.Since(configStart)
	if !dep.Safe() {
		return nil, fmt.Errorf("configuration at alpha=%.3f does not verify; refusing to serve", alpha)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		return nil, err
	}
	d.ctrl = ctrl
	// Class names in HTTP bodies must not mint metric series: only the
	// deployment's own classes get one.
	d.sink.SetClasses(ctrl.Classes())
	ctrl.SetSink(d.sink)

	// Admission policy: built against the live controller (slo_gated
	// samples MaxUtilization) and installed before any traffic is served;
	// always_admit strips to the pre-policy fast path inside SetPolicy.
	pol, err := policyCfg.Build(ctrl.MaxUtilization)
	if err != nil {
		return nil, err
	}
	ctrl.SetPolicy(pol)

	// Durability: replay prior state, then journal every decision; the
	// WAL refuses logs written under another configuration. Cluster
	// nodes skip this: their WAL holds lease records (the cluster.Node
	// owns it), their ledger is rebuilt from lease state on promotion,
	// and the authority accounts edge admits wholesale.
	if cfg.DataDir != "" && clusterCfg == nil {
		if err := d.openWAL(cfg); err != nil {
			return nil, err
		}
	}

	// The distributed admission plane: every admit on this node takes its
	// capacity from the node's edge lease cells, and the wire server
	// carries both client traffic and cluster frames.
	wireOpts := wire.Options{Observer: d.sink}
	if clusterCfg != nil {
		members := make([]cluster.Member, len(clusterCfg.Members))
		for i, m := range clusterCfg.Members {
			members[i] = cluster.Member{ID: m.ID, Addr: m.Addr}
		}
		node, err := cluster.NewNode(cluster.NodeOptions{
			Config: cluster.Config{
				NodeID:            clusterCfg.NodeID,
				Members:           members,
				HeartbeatInterval: time.Duration(clusterCfg.HeartbeatMS) * time.Millisecond,
				SuspicionTimeout:  time.Duration(clusterCfg.SuspicionMS) * time.Millisecond,
				LadderDelay:       time.Duration(clusterCfg.LadderMS) * time.Millisecond,
				LeaseTTL:          time.Duration(clusterCfg.LeaseTTLMS) * time.Millisecond,
				LeaseBlock:        int64(clusterCfg.LeaseBlock),
			},
			Controller: ctrl,
			DataDir:    cfg.DataDir,
			Observer:   d.sink,
			Logf:       d.log.Printf,
		})
		if err != nil {
			return nil, err
		}
		d.node = node
		wireOpts.Cluster = node
		// A member's local-path admits are its controller's cell hits; the
		// sink already named the family with the sync path.
		reg.CounterFunc(telemetry.MetricClusterAdmitsTotal, "", func() uint64 { return ctrl.FastPathStats().Hits },
			telemetry.Label{Key: "path", Value: "local"})
		d.log.Printf("ubacd: cluster node %d of %d members (data in %s)",
			clusterCfg.NodeID, len(members), cfg.DataDir)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	d.http = &http.Server{
		Handler:           newServer(topo, ctrl, reg, ring).routes(),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	d.log.Printf("ubacd: %s configured at alpha=%.3f (%d routes verified in %s), policy %s, listening on %s",
		topo.Name(), alpha, len(dep.Verify.Routes), configElapsed.Round(time.Millisecond),
		policyCfg.Describe(), cfg.Listen)
	httpLn := deps.HTTP
	if httpLn == nil {
		if httpLn, err = net.Listen("tcp", cfg.Listen); err != nil {
			return nil, err
		}
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		if err := d.http.Serve(httpLn); !errors.Is(err, http.ErrServerClosed) {
			d.errs <- err
		}
	}()

	// The binary wire transport serves the same controller the HTTP flow
	// endpoints do; verdicts are identical on either path.
	if wireLn := deps.Wire; cfg.WireListen != "" {
		if wireLn == nil {
			if wireLn, err = net.Listen("tcp", cfg.WireListen); err != nil {
				d.http.Close()
				return nil, fmt.Errorf("wire listen: %w", err)
			}
		}
		d.wire = wire.NewServer(ctrl, wireOpts)
		d.log.Printf("ubacd: wire transport listening on %s", wireLn.Addr())
		d.serving.Add(1)
		go func() {
			defer d.serving.Done()
			if err := d.wire.Serve(wireLn); err != nil && !errors.Is(err, net.ErrClosed) {
				d.errs <- fmt.Errorf("wire: %w", err)
			}
		}()
	}
	if d.node != nil {
		// Start the control loop only once the wire listener is live, so
		// peers probing this node during their own boot can reach it.
		d.node.Start()
	}
	return d, nil
}

// openWAL recovers cfg.DataDir into the controller, reports what came
// back (no Decision event will announce the recovered flows, so they
// start the active-flows gauge), and journals to the directory.
func (d *Daemon) openWAL(cfg Config) error {
	fp := d.ctrl.Fingerprint()
	rec, err := wal.Recover(cfg.DataDir, fp, d.ctrl)
	if err == nil {
		err = d.ctrl.FinishRecovery()
	}
	if err != nil {
		return fmt.Errorf("recover %s: %w", cfg.DataDir, err)
	}
	d.sink.WALRecovered(rec.ReplayedAdmits, rec.ReplayedTeardowns, d.ctrl.Stats().Active)
	mode := wal.ModeAsync
	if cfg.Fsync == "sync" {
		mode = wal.ModeSync
	}
	d.wal, err = wal.Open(wal.Options{
		Dir:         cfg.DataDir,
		Mode:        mode,
		Fingerprint: fp,
		Epoch:       rec.Epoch + 1,
		Observer:    d.sink,
	})
	if err != nil {
		return fmt.Errorf("open wal: %w", err)
	}
	d.ctrl.SetJournal(d.wal)
	line := fmt.Sprintf("ubacd: durable in %s (fsync=%s, epoch %d): recovered %d flows (%d admits, %d teardowns replayed",
		cfg.DataDir, mode, d.wal.Epoch(), d.ctrl.Stats().Active, rec.ReplayedAdmits, rec.ReplayedTeardowns)
	if rec.SnapshotLoaded {
		line += fmt.Sprintf(" over snapshot seq %d", rec.SnapshotSeq)
	}
	if rec.TailTruncated {
		line += fmt.Sprintf("; torn tail repaired, %d bytes cut", rec.TruncatedBytes)
	}
	d.log.Print(line + ")")
	return nil
}

// Stop drains the daemon within ctx: the cluster node first, then the
// wire and HTTP transports; then it snapshots the quiesced registry and
// closes the WAL. An HTTP drain that misses ctx's deadline returns its
// error at once and leaves the data directory as a killed daemon would.
func (d *Daemon) Stop(ctx context.Context) error {
	if d.node != nil {
		// Relinquish leases (follower) or stop granting (authority)
		// before the transport goes away.
		d.node.Stop()
	}
	if d.wire != nil {
		if err := d.wire.Shutdown(ctx); err != nil {
			d.log.Printf("ubacd: wire shutdown: %v", err)
		}
	}
	if err := d.http.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	d.serving.Wait()
	if d.wal != nil {
		// The drain is done: flush (a record still staged would land after
		// the snapshot and be replayed over it), snapshot the quiesced
		// registry so the next boot replays none of this run's log, and
		// stop the syncer. An admit that raced the drain either committed
		// or got ErrClosed (a 503 to its client) — never a hung write.
		if err := d.wal.Flush(); err != nil {
			d.log.Printf("ubacd: shutdown flush: %v", err)
		}
		if err := d.wal.WriteSnapshot(d.ctrl.MarshalRegistry); err != nil {
			d.log.Printf("ubacd: shutdown snapshot: %v", err)
		}
		if err := d.wal.Close(); err != nil {
			d.log.Printf("ubacd: wal close: %v", err)
		}
	}
	return nil
}

// Err delivers an error from a transport that stopped serving on its
// own; the daemon should then be stopped.
func (d *Daemon) Err() <-chan error { return d.errs }

// Controller is the admission controller both transports serve.
func (d *Daemon) Controller() *admission.Controller { return d.ctrl }

// Sink records every decision and configuration-step solve.
func (d *Daemon) Sink() *telemetry.RegistrySink { return d.sink }

// Node is the daemon's cluster node, nil on a single node.
func (d *Daemon) Node() *cluster.Node { return d.node }
