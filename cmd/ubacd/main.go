// Command ubacd is the admission-control daemon: it runs the paper's
// configuration step once at startup (safe route selection and
// verification at the requested utilization) and then serves run-time
// admission decisions over HTTP and, with -wire, the binary wire
// transport. Both are codecs over the admission controller, which on a
// -cluster member takes its capacity from the node's edge lease cells,
// so a request is decided the same way whichever transport carries it.
//
//	ubacd -topology mci -alpha 0.40 -listen :8080
//
//	POST   /v1/flows                  admit {"class","src","dst"}
//	POST   /v1/flows:batch            batch admit/teardown in one round-trip
//	DELETE /v1/flows/{id}             tear down
//	GET    /v1/stats                  controller counters
//	GET    /v1/events?limit=N         admission decision audit trail
//	GET    /v1/headroom?class=&src=&dst=
//	GET    /v1/utilization?class=&link=Seattle-Chicago
//	GET    /metrics                   Prometheus text exposition
//	GET    /healthz
//	GET    /debug/pprof/              runtime profiles (net/http/pprof)
//
// The daemon refuses to start if the configuration does not verify: a
// running ubacd is the proof that every admitted flow meets its
// deadline. Every admission decision is counted in /metrics and
// recorded in the bounded /v1/events audit ring, so rejected traffic is
// always attributable to a reason and a bottleneck hop. SIGINT/SIGTERM
// drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	gonet "net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"ubac/internal/admission"
	"ubac/internal/cluster"
	"ubac/internal/config"
	"ubac/internal/core"
	"ubac/internal/telemetry"
	"ubac/internal/traffic"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

// servedClass is the one real-time class ubacd configures and admits.
const servedClass = "voice"

// fileAlpha returns the utilization a configuration file assigns to
// servedClass. It refuses a file whose alphas name any other class:
// ubacd would skip that entry and boot at the -alpha default, so a
// misspelt class would silently run at an α nobody asked for.
func fileAlpha(alphas map[string]float64) (float64, error) {
	var other []string
	for name := range alphas {
		if name != servedClass {
			other = append(other, name)
		}
	}
	if len(other) > 0 {
		sort.Strings(other)
		return 0, fmt.Errorf("config: alphas names %q; ubacd serves only class %q", other, servedClass)
	}
	return alphas[servedClass], nil
}

// recoverState replays the data directory into ctrl and reports what
// came back to the sink: the replay counts, and the flows now active —
// no Decision event will ever announce those, so the active-flows
// gauge starts from them.
func recoverState(ctrl *admission.Controller, sink *telemetry.RegistrySink, dir string) (*wal.RecoveryInfo, error) {
	rec, err := wal.Recover(dir, ctrl.Fingerprint(), ctrl)
	if err != nil {
		return nil, err
	}
	if err := ctrl.FinishRecovery(); err != nil {
		return nil, err
	}
	sink.WALRecovered(rec.ReplayedAdmits, rec.ReplayedTeardowns, ctrl.Stats().Active)
	return rec, nil
}

func main() {
	cfgPath := flag.String("config", "", "JSON configuration file (flags set explicitly on the command line override it)")
	topo := flag.String("topology", "mci", "topology: mci | nsfnet | line:N | ... | @file.json")
	alpha := flag.Float64("alpha", 0.40, "utilization assignment for the voice class")
	listen := flag.String("listen", ":8080", "listen address")
	wireListen := flag.String("wire", "", "binary wire-transport listen address (empty = HTTP only)")
	events := flag.Int("events", 4096, "decision audit ring capacity (rounded up to a power of two)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown deadline on SIGINT/SIGTERM")
	dataDir := flag.String("data-dir", "", "durability directory for the admission WAL and snapshots (empty = non-durable)")
	fsync := flag.String("fsync", config.DefaultFsync, "WAL append mode: sync | async | off (off only without -data-dir)")
	policySpec := flag.String("policy", "", `admission policy: always_admit | token_bucket:rate=R,burst=B | slo_gated:standard=S,sheddable=H[,name=tier...] | reserve_headroom:fraction=F[,protected=a+b] | @file.json (empty = always_admit)`)
	clusterSpec := flag.String("cluster", "", "distributed admission plane: id=N,members=0@host:port;1@host:port[,heartbeat_ms=...,suspicion_ms=...,ladder_ms=...,lease_ttl_ms=...,lease_block=...] (requires -wire and -data-dir; empty = single node)")
	flag.Parse()
	// Microseconds put a cluster member's boot lines and its election
	// (listening, promoted, following) on one timeline.
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	var policyCfg *config.PolicyConfig
	if *cfgPath != "" {
		file, err := config.LoadFile(*cfgPath)
		if err != nil {
			log.Fatalf("ubacd: %v", err)
		}
		// The file supplies the configuration; explicitly set flags win.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["topology"] {
			*topo = file.Topology
		}
		a, err := fileAlpha(file.Alphas)
		if err != nil {
			log.Fatalf("ubacd: %s: %v", *cfgPath, err)
		}
		if !set["alpha"] {
			*alpha = a
		}
		if !set["listen"] {
			*listen = file.Listen
		}
		if !set["wire"] {
			*wireListen = file.WireListen
		}
		if !set["events"] {
			*events = file.Events
		}
		if !set["shutdown-grace"] {
			*shutdownGrace = time.Duration(file.ShutdownGraceSeconds * float64(time.Second))
		}
		if !set["data-dir"] {
			*dataDir = file.DataDir
		}
		if !set["fsync"] {
			*fsync = file.Fsync
		}
		if !set["policy"] && file.Policy != nil {
			policyCfg = file.Policy
		}
		if !set["cluster"] {
			*clusterSpec = file.Cluster
		}
	}
	if policyCfg == nil {
		pc, err := config.ParsePolicySpec(*policySpec)
		if err != nil {
			log.Fatalf("ubacd: %v", err)
		}
		policyCfg = pc
	}
	switch *fsync {
	case "sync", "async":
	case "off":
		if *dataDir != "" {
			log.Fatalf("ubacd: -fsync off with -data-dir %q — drop -data-dir to run non-durable", *dataDir)
		}
	default:
		log.Fatalf("ubacd: -fsync %q not one of sync|async|off", *fsync)
	}
	var clusterCfg *config.ClusterConfig
	if *clusterSpec != "" {
		cc, err := config.ParseClusterSpec(*clusterSpec)
		if err != nil {
			log.Fatalf("ubacd: %v", err)
		}
		if *wireListen == "" {
			log.Fatalf("ubacd: -cluster requires -wire (cluster frames ride the wire transport)")
		}
		if *dataDir == "" {
			log.Fatalf("ubacd: -cluster requires -data-dir (the authority journals leases; followers mirror the log)")
		}
		if k := policyCfg.Kind; k == "slo_gated" || k == "reserve_headroom" {
			log.Fatalf("ubacd: -cluster with policy %s: %s reads this node's ledger, which a member's leases leave empty (no cluster-wide load signal)", policyCfg.Describe(), k)
		}
		clusterCfg = cc
	}

	net, err := parseTopologySpec(*topo)
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}
	sys, err := core.NewSystem(net, classes)
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}

	// One registry + audit ring for the whole process: the configuration
	// step's fixed-point solves and every run-time decision land in it.
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRing(*events)
	sink := telemetry.NewRegistrySink(reg, ring)
	sys.Model().Sink = sink

	configStart := time.Now()
	dep, err := sys.Configure(map[string]float64{servedClass: *alpha})
	if err != nil {
		log.Fatalf("ubacd: configure: %v", err)
	}
	configElapsed := time.Since(configStart)
	if !dep.Safe() {
		log.Fatalf("ubacd: configuration at alpha=%.3f does not verify; refusing to serve", *alpha)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}
	// Class names in HTTP bodies must not mint metric series: only the
	// deployment's own classes get one.
	sink.SetClasses(ctrl.Classes())
	ctrl.SetSink(sink)

	// Admission policy: built against the live controller's utilization
	// counters (the slo_gated load signal samples MaxUtilization), then
	// installed before any traffic is served. always_admit strips to the
	// pre-policy fast path inside SetPolicy.
	pol, err := policyCfg.Build(ctrl.MaxUtilization)
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}
	ctrl.SetPolicy(pol)

	// Durability: replay prior state, then journal every decision. The
	// WAL refuses logs written under a different configuration (the
	// fingerprint covers topology, classes, alphas and routes), so a
	// reconfigured daemon fails loudly instead of reserving the wrong
	// resources.
	// Cluster nodes skip all of this: their WAL holds lease records (the
	// cluster.Node owns it), their ledger is rebuilt from lease state on
	// promotion, and per-flow journaling would record edge admits the
	// authority already accounts wholesale.
	var walLog *wal.Log
	if *dataDir != "" && clusterCfg == nil {
		fp := ctrl.Fingerprint()
		rec, err := recoverState(ctrl, sink, *dataDir)
		if err != nil {
			log.Fatalf("ubacd: recover %s: %v", *dataDir, err)
		}
		mode := wal.ModeAsync
		if *fsync == "sync" {
			mode = wal.ModeSync
		}
		walLog, err = wal.Open(wal.Options{
			Dir:         *dataDir,
			Mode:        mode,
			Fingerprint: fp,
			Epoch:       rec.Epoch + 1,
			Observer:    sink,
		})
		if err != nil {
			log.Fatalf("ubacd: open wal: %v", err)
		}
		ctrl.SetJournal(walLog)
		line := fmt.Sprintf("ubacd: durable in %s (fsync=%s, epoch %d): recovered %d flows (%d admits, %d teardowns replayed",
			*dataDir, mode, walLog.Epoch(), ctrl.Stats().Active, rec.ReplayedAdmits, rec.ReplayedTeardowns)
		if rec.SnapshotLoaded {
			line += fmt.Sprintf(" over snapshot seq %d", rec.SnapshotSeq)
		}
		if rec.TailTruncated {
			line += fmt.Sprintf("; torn tail repaired, %d bytes cut", rec.TruncatedBytes)
		}
		log.Print(line + ")")
	}

	// The distributed admission plane: every flow admit on this node,
	// over either transport, takes its capacity from the node's edge
	// lease cells; the wire server carries both client traffic and
	// cluster frames.
	var clusterNode *cluster.Node
	wireOpts := wire.Options{Observer: sink}
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
			DataDir:    *dataDir,
			Observer:   sink,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatalf("ubacd: %v", err)
		}
		clusterNode = node
		wireOpts.Cluster = node
		// A member's local-path admits are its controller's cell hits; the
		// sink already named the family with the sync path.
		reg.CounterFunc(telemetry.MetricClusterAdmitsTotal, "", func() uint64 { return ctrl.FastPathStats().Hits },
			telemetry.Label{Key: "path", Value: "local"})
		log.Printf("ubacd: cluster node %d of %d members (data in %s)",
			clusterCfg.NodeID, len(members), *dataDir)
	}

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           newServer(net, ctrl, reg, ring).routes(),
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	log.Printf("ubacd: %s configured at alpha=%.3f (%d routes verified in %s), policy %s, listening on %s",
		net.Name(), *alpha, len(dep.Verify.Routes), configElapsed.Round(time.Millisecond),
		policyCfg.Describe(), *listen)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	// The binary wire transport serves the same controller the HTTP flow
	// endpoints do; verdicts are identical on either path.
	var wireSrv *wire.Server
	if *wireListen != "" {
		ln, err := gonet.Listen("tcp", *wireListen)
		if err != nil {
			log.Fatalf("ubacd: wire listen: %v", err)
		}
		wireSrv = wire.NewServer(ctrl, wireOpts)
		log.Printf("ubacd: wire transport listening on %s", ln.Addr())
		go func() {
			if err := wireSrv.Serve(ln); err != nil && !errors.Is(err, gonet.ErrClosed) {
				errCh <- fmt.Errorf("wire: %w", err)
			}
		}()
	}
	if clusterNode != nil {
		// Start the control loop only once the wire listener is live, so
		// peers probing this node during their own boot can reach it.
		clusterNode.Start()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("ubacd: %v", err)
	case sig := <-sigCh:
		fmt.Printf("ubacd: %v, draining (deadline %s)\n", sig, *shutdownGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if clusterNode != nil {
			// Relinquish leases (follower) or stop granting (authority)
			// before the transport goes away.
			clusterNode.Stop()
		}
		if wireSrv != nil {
			if err := wireSrv.Shutdown(ctx); err != nil {
				log.Printf("ubacd: wire shutdown: %v", err)
			}
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Fatalf("ubacd: shutdown: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("ubacd: %v", err)
		}
		if walLog != nil {
			// The drain is done: snapshot the quiesced registry so the next
			// boot restores without replaying this run's log, then stop the
			// syncer. Any admit that raced the drain either committed before
			// the final flush or got ErrClosed (surfaced to its client as
			// 503) — never a hung write.
			if err := walLog.WriteSnapshot(ctrl.MarshalRegistry); err != nil {
				log.Printf("ubacd: shutdown snapshot: %v", err)
			}
			if err := walLog.Close(); err != nil {
				log.Printf("ubacd: wal close: %v", err)
			}
		}
	}
}
