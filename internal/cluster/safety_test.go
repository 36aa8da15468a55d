package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubac/internal/admission"
)

// TestLeaseSafetyProperty is the lease-expiry safety property test,
// meant to run under -race: while many goroutines hammer every node's
// edge plane in-process and the authority is killed and replaced
// mid-run, the authority's ledger — which holds every admitted flow
// AND every outstanding lease budget as reservations — never exceeds
// the exact per-(class, server) utilization limit, and no edge cell
// ever holds more than the ledger backs for it. On the hub topology the
// workers want more than the core link holds, so the property also
// spans saturation, dry cells and the sibling reclaim.
func TestLeaseSafetyProperty(t *testing.T) {
	for _, topo := range clusterTopologies {
		t.Run(topo.name, func(t *testing.T) { leaseSafetyProperty(t, topo.build) })
	}
}

func leaseSafetyProperty(t *testing.T, build func(testing.TB) *admission.Controller) {
	nodes := startClusterOn(t, 3, build)

	var stop atomic.Bool
	var violations atomic.Int64

	// Continuous bound checker over every live node's ledger. Follower
	// ledgers are idle (zero) so the authority's — wherever it currently
	// lives — is the one that matters; checking all is free.
	var checkers sync.WaitGroup
	checkers.Add(1)
	go func() {
		defer checkers.Done()
		for !stop.Load() {
			for _, tn := range nodes {
				ctrl := tn.ctrl
				for ci := 0; ci < ctrl.ClassCount(); ci++ {
					for s := 0; s < ctrl.ServerCount(); s++ {
						if in, lim := ctrl.LedgerInUseMicro(ci, s), ctrl.LimitMicro(ci, s); in > lim {
							violations.Add(1)
							t.Errorf("node %d class %d server %d: ledger %d exceeds limit %d", tn.id, ci, s, in, lim)
							stop.Store(true)
							return
						}
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Hammer every node's edge plane directly (in-process: maximal
	// interleaving under the race detector). Each worker rotates over
	// real routable pairs of the first class.
	class := nodes[0].ctrl.Classes()[0]
	set, err := nodes[0].ctrl.ClassRoutes(class)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for _, r := range set.Routes() {
		pairs = append(pairs, [2]int{r.Src, r.Dst})
	}
	if len(pairs) == 0 {
		t.Fatal("no routable pairs")
	}
	var workers sync.WaitGroup
	for _, tn := range nodes {
		for w := 0; w < 2; w++ {
			workers.Add(1)
			go func(tn *testNode, w int) {
				defer workers.Done()
				backend := tn.ctrl
				items := make([]admission.BatchItem, 3)
				for i := range items {
					p := pairs[(w+i)%len(pairs)]
					items[i] = admission.BatchItem{Class: class, Src: p[0], Dst: p[1]}
				}
				var results []admission.BatchResult
				var live []admission.FlowID
				var errs []error
				for !stop.Load() {
					results = backend.AdmitBatch(items, results)
					admitted := 0
					for _, r := range results {
						if r.Err == nil {
							admitted++
							live = append(live, r.ID)
						}
					}
					if admitted == 0 {
						// Saturated or failing over: pace the retry loop
						// like a real client would, so the reject spin does
						// not starve the nodes' control loops (this test
						// shares one box with three whole clusters' worth
						// of goroutines under the race detector).
						time.Sleep(200 * time.Microsecond)
					}
					if len(live) > 48 {
						errs = backend.TeardownBatch(live[:24], errs)
						for i, err := range errs {
							if err != nil {
								t.Errorf("teardown %d: %v", i, err)
							}
						}
						live = live[24:]
					}
				}
			}(tn, w)
		}
	}

	// Mid-run, crash the authority so the property spans a promote and
	// replay; survivors keep admitting from leased budget throughout.
	time.Sleep(400 * time.Millisecond)
	auth := authorityOf(nodes)
	if auth == nil {
		t.Fatal("no authority to kill")
	}
	killNode(t, auth)
	waitFor(t, 5*time.Second, "promotion", func() bool {
		a := authorityOf(nodes)
		return a != nil && a.node.settled()
	})
	time.Sleep(400 * time.Millisecond)

	stop.Store(true)
	workers.Wait()
	checkers.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d bound violations", violations.Load())
	}

	// After quiescing, every edge cell is bounded by its ledger backing:
	// a cell's sum may lag below its backing (releases are reported
	// lazily) but must never exceed it.
	var next *testNode
	waitFor(t, 5*time.Second, "cells within backing", func() bool {
		next = authorityOf(nodes)
		if next == nil || !next.node.settled() {
			return false
		}
		backing := next.node.auth.backingSnapshot()
		for _, tn := range nodes {
			if tn.dead {
				continue
			}
			for ci := 0; ci < tn.ctrl.ClassCount(); ci++ {
				for ri := int32(0); int(ri) < tn.ctrl.RouteCount(ci); ri++ {
					if tn.node.edge.cellSum(ci, ri) > backing[backKey{node: tn.id, ci: int32(ci), ri: ri}] {
						return false
					}
				}
			}
		}
		return true
	})
	assertBound(t, next)
}
