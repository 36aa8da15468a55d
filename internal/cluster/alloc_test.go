package cluster

import (
	"testing"
	"time"

	"ubac/internal/admission"
)

// TestEdgeRenewZeroAlloc: a warm edge's renewal pass — every cell in
// use gathered into lease calls, granted or trimmed, the answers
// applied — allocates nothing, whether or not admits came and went
// since the last one; nor do those admits and teardowns, through the
// member's controller with its decisions recorded.
func TestEdgeRenewZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 4, 400) }, 8)
	rig.attachSink()
	cfg := rig.edge.cfg
	rig.edge.grant = func(items []leaseItem, grants []uint64) ([]uint64, time.Duration, error) {
		grants, err := rig.auth.handleLease(cfg.NodeID, items, grants, time.Now())
		return grants, cfg.LeaseTTL, err
	}
	items := rig.routeItems(t)
	var results []admission.BatchResult
	var ids []admission.FlowID
	var errs []error
	churn := func() {
		results = rig.ctrl.AdmitBatch(items, results)
		ids = ids[:0]
		for _, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			ids = append(ids, res.ID)
		}
		errs = rig.ctrl.TeardownBatch(ids, errs)
	}
	renew := func() { rig.edge.renewNow(time.Now()) }
	held := rig.ctrl.AdmitBatch(items, nil) // flows that stay: cells in use
	// Each batch claims registry slots in a shard picked by its sequence;
	// a thousand visit every shard, which grows once.
	for i := 0; i < 1000; i++ {
		churn()
		renew()
	}
	if allocs := testing.AllocsPerRun(20, renew); allocs != 0 {
		t.Errorf("%g allocations per renewal of a quiet edge holding %d flows, want 0", allocs, len(held))
	}
	if allocs := testing.AllocsPerRun(20, func() { churn(); renew() }); allocs != 0 {
		t.Errorf("%g allocations per churn and renewal, want 0", allocs)
	}
}

// TestAuthorityFramesZeroAlloc: the authority answers a remote edge's
// renewal and a follower's fetch — caught up, or a few bytes behind —
// into the connection's buffer, from scratch of its own, allocating
// nothing.
func TestAuthorityFramesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 4, 400) }, 8)
	rig.edge.renewNow(time.Now())
	if res := rig.ctrl.AdmitBatch(rig.routeItems(t), nil); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	rig.edge.renewNow(time.Now())
	rig.edge.renewNow(time.Now())
	renewal := rig.calls[len(rig.calls)-1] // what the edge holds, nothing wanted
	body := appendLeaseReq(nil, rig.edge.cfg.NodeID, renewal)
	var dst []byte
	lease := func() {
		var err error
		if dst, err = rig.auth.serveLease(uint16(len(renewal)), body, dst[:0], time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	lease()
	if allocs := testing.AllocsPerRun(50, lease); allocs != 0 {
		t.Errorf("%g allocations per %d-item lease frame, want 0", allocs, len(renewal))
	}

	seg, tail := rig.auth.log.TailPos()
	for _, off := range []int64{tail, tail - 3} {
		fetch := func() {
			var err error
			if dst, err = rig.auth.handleFetch(seg, off, fetchMax, dst[:0]); err != nil {
				t.Fatal(err)
			}
		}
		fetch()
		if allocs := testing.AllocsPerRun(50, fetch); allocs != 0 {
			t.Errorf("%g allocations per fetch %d bytes short of the tail, want 0", allocs, tail-off)
		}
	}
}
