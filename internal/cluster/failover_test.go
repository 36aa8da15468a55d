package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/wire"
)

// TestFailoverPromotion is the kill-the-authority test: a 3-node
// cluster under live admission load loses its authority; a follower
// promotes from its WAL mirror, settles against the surviving edges'
// reattach reports, and the promoted ledger ends exactly equal to what
// the edges actually hold — with the utilization bound intact at every
// step and admits flowing again afterwards. On the hub topology the
// two followers' blocks do not fit the core link side by side, so the
// failover happens with reclaims in flight.
func TestFailoverPromotion(t *testing.T) {
	for _, topo := range clusterTopologies {
		t.Run(topo.name, func(t *testing.T) { failoverPromotion(t, topo.build) })
	}
}

func failoverPromotion(t *testing.T, build func(testing.TB) *admission.Controller) {
	nodes := startClusterOn(t, 3, build)
	auth := authorityOf(nodes)
	if auth == nil {
		t.Fatal("no authority")
	}

	// Live load against both followers for the whole test, through the
	// failover: admit a burst, tear half down, repeat. Errors during the
	// blip are expected (leases expire while the cluster is headless);
	// admitted flows and bound safety are what we track.
	var stop atomic.Bool
	var admitted, rejected, errored atomic.Int64
	var wg sync.WaitGroup
	for _, tn := range nodes {
		if tn == auth {
			continue
		}
		wg.Add(1)
		go func(tn *testNode) {
			defer wg.Done()
			cl := dialNode(t, tn)
			pairs := routePairsOf(t, cl)
			reqs := make([]wire.AdmitReq, 8)
			for i := range reqs {
				p := pairs[i%len(pairs)]
				reqs[i] = wire.AdmitReq{Class: p.Class, Src: p.Src, Dst: p.Dst}
			}
			var res []wire.AdmitResult
			var live []uint64
			for !stop.Load() {
				var err error
				res, err = cl.Admit(reqs, res)
				if err != nil {
					errored.Add(1)
					time.Sleep(5 * time.Millisecond)
					continue
				}
				for _, r := range res {
					switch {
					case r.Status == wire.StatusOK:
						admitted.Add(1)
						live = append(live, r.ID)
					case wire.StatusRejected(r.Status):
						rejected.Add(1)
					default:
						errored.Add(1)
					}
				}
				if len(live) > 64 {
					if _, err := cl.Teardown(live[:32], nil); err == nil {
						live = live[32:]
					}
				}
			}
		}(tn)
	}

	// Let the load warm the lease cells, then kill the authority.
	time.Sleep(300 * time.Millisecond)
	if admitted.Load() == 0 {
		t.Fatal("no admits before failover")
	}
	t.Logf("killing authority node %d", auth.id)
	killNode(t, auth)

	// A survivor must promote and finish settling.
	var next *testNode
	waitFor(t, 5*time.Second, "promotion", func() bool {
		next = authorityOf(nodes)
		return next != nil && next.node.settled()
	})
	t.Logf("node %d promoted at epoch %d", next.id, next.node.Epoch())
	if next.node.Epoch() < 2 {
		t.Errorf("promoted epoch %d, want >= 2", next.node.Epoch())
	}
	assertBound(t, next)

	// Admits must flow again on every survivor.
	before := admitted.Load()
	waitFor(t, 5*time.Second, "post-failover admits", func() bool {
		return admitted.Load() > before
	})

	stop.Store(true)
	wg.Wait()

	// Quiesce: give the renewer a few TTLs to report exact sums, then
	// check replayed-state exactness — every surviving edge's holdings
	// match the promoted authority's ledger entry for it, cell by cell.
	waitFor(t, 5*time.Second, "ledger convergence", func() bool {
		backing := next.node.auth.backingSnapshot()
		for _, tn := range nodes {
			if tn.dead {
				continue
			}
			ctrl := tn.ctrl
			for ci := 0; ci < ctrl.ClassCount(); ci++ {
				for ri := int32(0); int(ri) < ctrl.RouteCount(ci); ri++ {
					sum := tn.node.edge.cellSum(ci, ri)
					if backing[backKey{node: tn.id, ci: int32(ci), ri: ri}] != sum {
						return false
					}
				}
			}
		}
		// No stale backing beyond live edges' cells may remain either:
		// every key must belong to a live node (the dead authority's was
		// reclaimed at settle).
		for k := range backing {
			live := false
			for _, tn := range nodes {
				if !tn.dead && tn.id == k.node {
					live = true
				}
			}
			if !live {
				return false
			}
		}
		return true
	})
	assertBound(t, next)
	t.Logf("admitted %d, rejected %d, errored %d across the failover",
		admitted.Load(), rejected.Load(), errored.Load())
}

// TestFailoverWithIdleEdges: promotion settles even when no load runs,
// purely from reattach renewals, and the bound holds.
func TestFailoverWithIdleEdges(t *testing.T) {
	nodes := startCluster(t, 3)
	auth := authorityOf(nodes)

	// Warm one follower cell so there is real backing to replay.
	cl := dialNode(t, nodes[2])
	pairs := routePairsOf(t, cl)
	res, err := cl.Admit([]wire.AdmitReq{{Class: pairs[0].Class, Src: pairs[0].Src, Dst: pairs[0].Dst}}, nil)
	if err != nil || res[0].Status != wire.StatusOK {
		t.Fatalf("warm admit: %v status %d", err, res[0].Status)
	}
	// Let the grant land in the WAL and replicate.
	time.Sleep(200 * time.Millisecond)

	killNode(t, auth)
	var next *testNode
	waitFor(t, 5*time.Second, "promotion", func() bool {
		next = authorityOf(nodes)
		return next != nil && next.node.settled()
	})
	assertBound(t, next)

	// The warmed edge's holdings survived and are accounted.
	waitFor(t, 2*time.Second, "reattach exactness", func() bool {
		backing := next.node.auth.backingSnapshot()
		tn := nodes[2]
		if tn.dead {
			return true
		}
		for ci := 0; ci < tn.ctrl.ClassCount(); ci++ {
			for ri := int32(0); int(ri) < tn.ctrl.RouteCount(ci); ri++ {
				if tn.node.edge.cellSum(ci, ri) != backing[backKey{node: tn.id, ci: int32(ci), ri: ri}] {
					return false
				}
			}
		}
		return true
	})
}
