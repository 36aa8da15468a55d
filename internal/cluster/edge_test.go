package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/wal"
)

// edgeRig is one edge plane wired in-process to a real authority on
// its own twin controller and WAL: no sockets, no control loop, no
// timers — renewals happen when the test says so — and every lease
// call is recorded. With a lease TTL of an hour nothing in a test
// depends on the wall clock.
type edgeRig struct {
	edge     *edgePlane
	auth     *authority
	ctrl     *admission.Controller // the edge's: flow registry
	authCtrl *admission.Controller // the authority's: ledger
	obs      *countObs
	calls    [][]leaseItem
}

func newEdgeRig(t *testing.T, build func(testing.TB) *admission.Controller, leaseBlock int64) *edgeRig {
	t.Helper()
	cfg := Config{
		NodeID:           1,
		Members:          []Member{{ID: 0, Addr: "authority"}, {ID: 1, Addr: "edge"}},
		SuspicionTimeout: 2 * time.Hour,
		LeaseTTL:         time.Hour,
		LeaseBlock:       leaseBlock,
	}.withDefaults()
	r := &edgeRig{ctrl: build(t), authCtrl: build(t), obs: &countObs{}}
	log, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 1 << 20, Fingerprint: r.authCtrl.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	auth := newAuthority(r.authCtrl, log, cfg, t.Logf, nil, time.Now())
	r.auth = auth
	r.edge = newEdgePlane(r.ctrl, cfg, r.obs, func(items []leaseItem, grants []uint64) ([]uint64, time.Duration, error) {
		r.calls = append(r.calls, append([]leaseItem(nil), items...))
		grants, err := auth.handleLease(cfg.NodeID, items, grants, time.Now())
		return grants, cfg.LeaseTTL, err
	})
	return r
}

// routeItems returns one admit item per route of the rig's first class,
// indexed by route.
func (r *edgeRig) routeItems(t *testing.T) []admission.BatchItem {
	t.Helper()
	class := r.ctrl.Classes()[0]
	set, err := r.ctrl.ClassRoutes(class)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]admission.BatchItem, set.Len())
	for i, rt := range set.Routes() {
		items[i] = admission.BatchItem{Class: class, Src: rt.Src, Dst: rt.Dst}
	}
	return items
}

// TestEdgeHubContentionNoSpuriousReject: 16 routes cross a core link
// that holds 400 flows — fewer than the 16 × 64 a block per route would
// park on it, more than the ≤ 256 flows the churn ever holds. Seeded
// batch churn (admit 32 on Zipf-drawn routes, tear down the oldest 32
// once 256 are held, a renewal every 32 batches) must never be
// refused: the authority's exact walk has room for every one of those
// flows, so a reject could only come from this edge's own parked
// budget. And it must get there without living on the grant path: a
// variant that drains siblings to zero and re-asks a full block after
// a drain also never rejects, but moves the shortage from cell to cell
// and pays a lease call every few admits.
func TestEdgeHubContentionNoSpuriousReject(t *testing.T) {
	const (
		coreFlows = 400
		hold      = 256
		batch     = 32
		batches   = 4000
		window    = 32 // batches between renewals
		// grantBound is lease calls per 1000 admits: this run takes 31
		// (1 of them renewals; the 144 slots the held flows leave free are
		// fewer than the 16 working sets want, so the sync path is busy),
		// the drain-to-zero variant 292.
		grantBound = 60.0
	)
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 4, coreFlows) }, 64)
	routeItem := rig.routeItems(t)
	if len(routeItem)*64 <= coreFlows {
		t.Fatalf("%d routes × 64 fits the core's %d: no contention to test", len(routeItem), coreFlows)
	}
	// Zipf(s=1) over the routes, like the benchmark's draws.
	cum := make([]float64, len(routeItem))
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(23))
	draw := func() int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x < c {
				return i
			}
		}
		return len(cum) - 1
	}

	rig.edge.renewNow(time.Now())
	var live []admission.FlowID
	var results []admission.BatchResult
	var errs []error
	items := make([]admission.BatchItem, batch)
	admits := 0
	for b := 0; b < batches; b++ {
		for i := range items {
			items[i] = routeItem[draw()]
		}
		results = rig.edge.AdmitBatch(items, results)
		for i, res := range results {
			if res.Err != nil {
				ri := rig.ctrl.RouteIndexFor(0, items[i].Src, items[i].Dst)
				t.Fatalf("batch %d item %d (route %d): %v with %d flows held of the core's %d (authority headroom %d, %d reclaims so far)",
					b, i, ri, res.Err, len(live), coreFlows, rig.authCtrl.BlockHeadroom(0, ri), rig.obs.reclaims.Load())
			}
			live = append(live, res.ID)
			admits++
		}
		if len(live) >= hold {
			errs = rig.edge.TeardownBatch(live[:batch], errs)
			for _, err := range errs {
				if err != nil {
					t.Fatalf("batch %d teardown: %v", b, err)
				}
			}
			live = live[batch:]
		}
		if b%window == window-1 {
			rig.edge.renewNow(time.Now())
		}
	}
	if rig.obs.reclaims.Load() == 0 {
		t.Error("the run never reached the sibling reclaim: the contention it is meant to test did not happen")
	}
	if rej := rig.obs.dry.Load() + rig.obs.down.Load(); rej != 0 {
		t.Errorf("observer counted %d lease rejects, results showed none", rej)
	}
	perK := float64(len(rig.calls)) / (float64(admits) / 1000)
	t.Logf("%d admits, %d lease calls (%.2f per 1000 admits), %d sync admits, %d reclaims",
		admits, len(rig.calls), perK, rig.obs.synced.Load(), rig.obs.reclaims.Load())
	if perK > grantBound {
		t.Errorf("%.2f lease calls per 1000 admits, bound %.1f: the edge is living on the grant path", perK, grantBound)
	}
	if st := rig.ctrl.Stats(); st.Active != int64(len(live)) {
		t.Errorf("controller reports %d active flows, the test holds %d", st.Active, len(live))
	}
}

// TestEdgeReclaimChunksAtMaxLeaseItems: 2116 routes share one core
// link, every one but the last holds a block of which one unit is in
// use, and the link is exactly full — so the last route's admit finds
// the authority dry and takes back three untouched units from each of
// 2115 siblings. That is more items than one lease call carries: the
// siblings' sums go out maxLeaseItems to a call, the asker's item last
// in the last call, and the admit succeeds.
func TestEdgeReclaimChunksAtMaxLeaseItems(t *testing.T) {
	const k, block = 46, 4
	routes := k * k
	if routes-1 <= maxLeaseItems {
		t.Fatalf("%d siblings fit one lease call of %d", routes-1, maxLeaseItems)
	}
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, k, (routes-1)*block) }, block)
	routeItem := rig.routeItems(t)
	rig.edge.renewNow(time.Now())
	results := rig.edge.AdmitBatch(routeItem[:routes-1], nil)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("warming route %d: %v", i, res.Err)
		}
	}
	last := int32(routes - 1)
	if h := rig.authCtrl.BlockHeadroom(0, last); h != 0 {
		t.Fatalf("authority has headroom %d on the last route after %d blocks of %d, want a full core", h, routes-1, block)
	}

	before := len(rig.calls)
	results = rig.edge.AdmitBatch(routeItem[last:], results)
	if results[0].Err != nil {
		t.Fatalf("admit on the last route: %v", results[0].Err)
	}
	calls := rig.calls[before:]
	// The dry ask, then the reclaim in two chunks.
	if len(calls) != 3 {
		t.Fatalf("%d lease calls for the contended admit, want 3 (ask, full chunk, rest + re-ask)", len(calls))
	}
	if len(calls[0]) != 1 || calls[0][0].ri != last || calls[0][0].want != block {
		t.Errorf("first call %+v, want the last route asking a block", calls[0])
	}
	if len(calls[1]) != maxLeaseItems {
		t.Errorf("second call carries %d items, want a full chunk of %d", len(calls[1]), maxLeaseItems)
	}
	if want := routes - 1 - maxLeaseItems + 1; len(calls[2]) != want {
		t.Errorf("third call carries %d items, want the remaining %d siblings and the asker", len(calls[2]), want-1)
	}
	seen := make(map[int32]bool)
	for _, call := range calls[1:] {
		for i, it := range call {
			if it.ri == last {
				if i != len(call)-1 || &call[0] != &calls[2][0] {
					t.Errorf("asker's item at %d of a %d-item call, want last of the last call", i, len(call))
				}
				if it.want == 0 || it.want >= block {
					t.Errorf("re-ask wants %d, want at least 1 and less than a block of %d", it.want, block)
				}
				continue
			}
			if seen[it.ri] {
				t.Errorf("route %d reported twice", it.ri)
			}
			seen[it.ri] = true
			if it.act != 1 || it.bud != 0 || it.want != 0 {
				t.Errorf("sibling %d reported act %d bud %d want %d, want its one live flow and nothing else", it.ri, it.act, it.bud, it.want)
			}
		}
	}
	if len(seen) != routes-1 {
		t.Errorf("%d siblings reported, want %d", len(seen), routes-1)
	}
	if got := rig.obs.reclaims.Load(); got != 1 {
		t.Errorf("observer counted %d reclaims, want 1", got)
	}
	if rej := rig.obs.dry.Load() + rig.obs.down.Load(); rej != 0 {
		t.Errorf("observer counted %d lease rejects", rej)
	}
}

// TestEdgeTeardownRefusesForeignNode: an ID stamped by another node —
// or by none — is unknown at this edge and leaves the flow it would
// otherwise have named in place.
func TestEdgeTeardownRefusesForeignNode(t *testing.T) {
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 2, 100) }, 8)
	rig.edge.renewNow(time.Now())
	res := rig.edge.AdmitBatch(rig.routeItems(t)[:1], nil)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	id := res[0].ID
	if id.Node() != 1 {
		t.Fatalf("edge-issued ID %#x carries node %d, want 1", uint64(id), id.Node())
	}
	errs := rig.edge.TeardownBatch([]admission.FlowID{id.WithNode(2), id.WithNode(0), id}, nil)
	if errs[0] != admission.ErrUnknownFlow || errs[1] != admission.ErrUnknownFlow || errs[2] != nil {
		t.Fatalf("teardown of node-2, node-0 and own ID: %v, want unknown, unknown, nil", errs)
	}
	if st := rig.ctrl.Stats(); st.Active != 0 || st.TornDown != 1 {
		t.Errorf("stats after the one real teardown: %+v", st)
	}
	if sum := rig.edge.cellSum(0, 0); sum == 0 {
		t.Error("the flow's unit did not return to its cell")
	}
}

// TestFetchReadsOnlyToTheTail: a fetch returns the durable bytes
// between the follower's position and the tail, and a follower that
// has caught up — the state every follower is in on nearly every
// heartbeat — reads nothing (TestAuthorityFramesZeroAlloc: and costs
// the authority no allocation).
func TestFetchReadsOnlyToTheTail(t *testing.T) {
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 2, 100) }, 8)
	rig.edge.renewNow(time.Now())
	if res := rig.edge.AdmitBatch(rig.routeItems(t), nil); res[0].Err != nil {
		t.Fatal(res[0].Err) // a few grants, so the log has records to serve
	}
	seg, tail := rig.auth.log.TailPos()
	if tail == 0 {
		t.Fatal("authority log is empty after grants")
	}
	fetch := func(off int64) (tailOff int64, eos bool, data []byte) {
		t.Helper()
		resp, err := rig.auth.handleFetch(seg, off, fetchMax, nil)
		if err != nil {
			t.Fatalf("fetch at %d: %v", off, err)
		}
		_, tailOff, eos, data, err = decodeFetchResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		return tailOff, eos, data
	}
	if tailOff, eos, data := fetch(0); tailOff != tail || eos || int64(len(data)) != tail {
		t.Errorf("fetch from 0: %d bytes, tail %d, eos %v; want the %d durable bytes", len(data), tailOff, eos, tail)
	}
	if _, _, data := fetch(tail - 3); len(data) != 3 {
		t.Errorf("fetch 3 bytes short of the tail returned %d bytes", len(data))
	}
	if tailOff, eos, data := fetch(tail); tailOff != tail || eos || len(data) != 0 {
		t.Errorf("caught-up fetch: %d bytes, tail %d, eos %v", len(data), tailOff, eos)
	}
	if _, err := rig.auth.handleFetch(seg, tail+1, fetchMax, nil); !errors.Is(err, wal.ErrOutOfRange) {
		t.Errorf("fetch past the tail: %v, want ErrOutOfRange", err)
	}
}
