package daemon

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/cluster"
	"ubac/internal/topology"
)

// testConfig is NSFNet at voice α 0.30 with a 256-event audit ring.
func testConfig() Config {
	return Config{
		Topology: "nsfnet",
		Alphas:   map[string]float64{servedClass: 0.30},
		Events:   256,
		Fsync:    DefaultFsync,
	}
}

// loopback binds a listener on a free loopback port.
func loopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// start checks cfg and boots it with its HTTP side on a loopback
// listener, logging to logTo.
func start(t *testing.T, cfg Config, logTo io.Writer) *Daemon {
	t.Helper()
	if err := cfg.Check(nil); err != nil {
		t.Fatal(err)
	}
	deps := Deps{HTTP: loopback(t), Log: log.New(logTo, "", 0)}
	cfg.Listen = deps.HTTP.Addr().String()
	d, err := Start(context.Background(), cfg, deps)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// stop drains d with a deadline.
func stop(t *testing.T, d *Daemon) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Stop(ctx); err != nil {
		t.Error(err)
	}
}

// TestStopSnapshotsAndRestartRestores runs the drain ubacd runs on
// SIGTERM: a durable daemon holding flows is stopped, and a daemon
// booted on its directory restores them from the shutdown snapshot
// without replaying a single log record.
func TestStopSnapshotsAndRestartRestores(t *testing.T) {
	cfg := testConfig()
	cfg.DataDir = t.TempDir()
	var boot bytes.Buffer
	d := start(t, cfg, &boot)
	ctrl := d.Controller()
	nsfnet := topology.NSFNet(topology.DefaultCapacity)
	sea, _ := nsfnet.RouterByName("Seattle")
	pri, _ := nsfnet.RouterByName("Princeton")
	var ids []admission.FlowID
	for i := 0; i < 25; i++ {
		id, err := ctrl.Admit(servedClass, sea, pri)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := ctrl.Teardown(ids[0]); err != nil {
		t.Fatal(err)
	}
	ids = ids[1:]
	stop(t, d)
	if !strings.Contains(boot.String(), "recovered 0 flows (0 admits, 0 teardowns replayed)") {
		t.Fatalf("first boot did not start empty:\n%s", boot.String())
	}

	boot.Reset()
	d2 := start(t, cfg, &boot)
	defer stop(t, d2)
	want := regexp.MustCompile(fmt.Sprintf(`ubacd: durable in .* \(fsync=async, epoch 2\): recovered %d flows \(0 admits, 0 teardowns replayed over snapshot seq \d+\)`, len(ids)))
	if !want.MatchString(boot.String()) {
		t.Fatalf("restart boot line does not match %s:\n%s", want, boot.String())
	}
	if got := d2.Controller().Stats().Active; got != int64(len(ids)) {
		t.Fatalf("%d flows active after the restart, want %d", got, len(ids))
	}
	for _, id := range ids {
		if err := d2.Controller().Teardown(id); err != nil {
			t.Fatalf("teardown of restored flow %d: %v", id, err)
		}
	}
}

// TestStartThreeMemberCluster boots a three-member cluster in process
// through Start, with the cluster harness's short timers. While
// workers admit and tear down concurrently at a follower, no member's
// ledger ever holds more than the verified limit on any class and
// server; then the authority is stopped and a survivor promotes.
func TestStartThreeMemberCluster(t *testing.T) {
	const n = 3
	var wires [n]net.Listener
	var members []string
	for i := range wires {
		wires[i] = loopback(t)
		members = append(members, fmt.Sprintf("%d@%s", i, wires[i].Addr()))
	}
	var daemons [n]*Daemon
	for i := range daemons {
		cfg := testConfig()
		cfg.DataDir = t.TempDir()
		cfg.WireListen = wires[i].Addr().String()
		cfg.Cluster = fmt.Sprintf("id=%d,members=%s,heartbeat_ms=15,suspicion_ms=600,ladder_ms=300,lease_ttl_ms=300,lease_block=32",
			i, strings.Join(members, ";"))
		if err := cfg.Check(nil); err != nil {
			t.Fatal(err)
		}
		cfg.Listen = "127.0.0.1:0"
		d, err := Start(context.Background(), cfg, Deps{HTTP: loopback(t), Wire: wires[i], Log: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
	}
	stopped := map[int]bool{}
	defer func() {
		for i, d := range daemons {
			if !stopped[i] {
				stop(t, d)
			}
		}
	}()

	// authority waits for one live member to lead and every live member
	// to follow it, and returns its index.
	authority := func() int {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			lead := -1
			agreed := true
			for i, d := range daemons {
				if stopped[i] {
					continue
				}
				if d.Node().Role() == cluster.RoleAuthority {
					lead = i
				}
				if aid := d.Node().AuthorityID(); aid == cluster.NoAuthority || lead >= 0 && aid != uint32(lead) {
					agreed = false
				}
			}
			if lead >= 0 && agreed {
				return lead
			}
		}
		t.Fatal("no authority every live member follows")
		return -1
	}
	lead := authority()

	var halt atomic.Bool
	var checks sync.WaitGroup
	checks.Add(1)
	go func() {
		defer checks.Done()
		for !halt.Load() {
			for i, d := range daemons {
				ctrl := d.Controller()
				for ci := 0; ci < ctrl.ClassCount(); ci++ {
					for s := 0; s < ctrl.ServerCount(); s++ {
						if in, lim := ctrl.LedgerInUseMicro(ci, s), ctrl.LimitMicro(ci, s); in > lim {
							t.Errorf("member %d class %d server %d: ledger %d exceeds limit %d", i, ci, s, in, lim)
							halt.Store(true)
							return
						}
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	follower := daemons[(lead+1)%n]
	set, err := follower.Controller().ClassRoutes(servedClass)
	if err != nil {
		t.Fatal(err)
	}
	routes := set.Routes()
	var admitted atomic.Int64
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			ctrl := follower.Controller()
			items := make([]admission.BatchItem, 3)
			for i := range items {
				r := routes[(7*w+i)%len(routes)]
				items[i] = admission.BatchItem{Class: servedClass, Src: r.Src, Dst: r.Dst}
			}
			var results []admission.BatchResult
			var live []admission.FlowID
			var errs []error
			for !halt.Load() {
				results = ctrl.AdmitBatch(items, results)
				for _, r := range results {
					if r.Err == nil {
						admitted.Add(1)
						live = append(live, r.ID)
					}
				}
				if len(live) > 48 {
					errs = ctrl.TeardownBatch(live[:24], errs)
					for _, err := range errs {
						if err != nil {
							t.Errorf("teardown: %v", err)
						}
					}
					live = live[24:]
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	halt.Store(true)
	workers.Wait()
	checks.Wait()
	if admitted.Load() == 0 {
		t.Fatal("the follower admitted nothing")
	}

	stop(t, daemons[lead])
	stopped[lead] = true
	if next := authority(); next == lead {
		t.Fatalf("member %d still leads after it stopped", lead)
	}
}
