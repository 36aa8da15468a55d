package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/telemetry"
	"ubac/internal/wal"
	"ubac/internal/wire"
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

// attachSink records the edge controller's decisions in a registry
// sink, as ubacd does, and returns its audit ring.
func (r *edgeRig) attachSink() *telemetry.Ring {
	ring := telemetry.NewRing(64)
	r.ctrl.SetSink(telemetry.NewRegistrySink(telemetry.NewRegistry(), ring))
	return ring
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
	drawn := make([]int32, batch) // route of each item
	admits := 0
	for b := 0; b < batches; b++ {
		for i := range items {
			drawn[i] = int32(draw())
			items[i] = routeItem[drawn[i]]
		}
		results = rig.ctrl.AdmitBatch(items, results)
		for i, res := range results {
			if res.Err != nil {
				ri := drawn[i]
				t.Fatalf("batch %d item %d (route %d): %v with %d flows held of the core's %d (authority headroom %d, %d reclaims so far)",
					b, i, ri, res.Err, len(live), coreFlows, rig.authCtrl.BlockHeadroom(0, ri), rig.obs.reclaims.Load())
			}
			live = append(live, res.ID)
			admits++
		}
		if len(live) >= hold {
			errs = rig.ctrl.TeardownBatch(live[:batch], errs)
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
	results := rig.ctrl.AdmitBatch(routeItem[:routes-1], nil)
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
	results = rig.ctrl.AdmitBatch(routeItem[last:], results)
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
// otherwise have named in place. The member records its decisions as a
// single node does, under the IDs it issued.
func TestEdgeTeardownRefusesForeignNode(t *testing.T) {
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 2, 100) }, 8)
	ring := rig.attachSink()
	rig.edge.renewNow(time.Now())
	res := rig.ctrl.AdmitBatch(rig.routeItems(t)[:1], nil)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	id := res[0].ID
	if id.Node() != 1 {
		t.Fatalf("edge-issued ID %#x carries node %d, want 1", uint64(id), id.Node())
	}
	errs := rig.ctrl.TeardownBatch([]admission.FlowID{id.WithNode(2), id.WithNode(0), id}, nil)
	if errs[0] != admission.ErrUnknownFlow || errs[1] != admission.ErrUnknownFlow || errs[2] != nil {
		t.Fatalf("teardown of node-2, node-0 and own ID: %v, want unknown, unknown, nil", errs)
	}
	if st := rig.ctrl.Stats(); st.Active != 0 || st.TornDown != 1 {
		t.Errorf("stats after the one real teardown: %+v", st)
	}
	if sum := rig.edge.cellSum(0, 0); sum == 0 {
		t.Error("the flow's unit did not return to its cell")
	}
	evs := ring.Snapshot(8) // newest first
	if len(evs) != 2 || evs[1].Verdict != "admit" || evs[0].Verdict != "teardown" ||
		evs[0].FlowID != uint64(id) || evs[1].FlowID != uint64(id) {
		t.Errorf("events %+v, want the admit and the one teardown of %#x", evs, uint64(id))
	}
}

// TestEdgeUnreachableAuthorityIsCapacity: while the authority cannot
// be reached, a cold cell's admits are capacity rejects counted as
// "down" — the first, whose grant call failed, and the next, which the
// down backoff refuses without a call — and over the wire both answer
// StatusCapacity, not StatusInternal.
func TestEdgeUnreachableAuthorityIsCapacity(t *testing.T) {
	unreachable := func(t *testing.T) *edgeRig {
		rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 2, 100) }, 8)
		rig.edge.grant = func(_ []leaseItem, grants []uint64) ([]uint64, time.Duration, error) {
			return grants, 0, errors.New("cluster: no known authority")
		}
		return rig
	}
	rig := unreachable(t)
	item := rig.routeItems(t)[:1]
	for i := 0; i < 2; i++ {
		if res := rig.ctrl.AdmitBatch(item, nil); !errors.Is(res[0].Err, admission.ErrCapacity) {
			t.Fatalf("admit %d with the authority unreachable: %v, want ErrCapacity", i, res[0].Err)
		}
	}
	if down, dry := rig.obs.down.Load(), rig.obs.dry.Load(); down != 2 || dry != 0 {
		t.Errorf("lease rejects counted down %d, dry %d; want 2 and 0", down, dry)
	}

	rig = unreachable(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(rig.ctrl, wire.Options{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	cl, err := wire.Dial(wire.ClientOptions{Addr: ln.Addr().String(), Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	req := []wire.AdmitReq{{Class: 0, Src: uint32(item[0].Src), Dst: uint32(item[0].Dst)}}
	for i := 0; i < 2; i++ {
		res, err := cl.Admit(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != wire.StatusCapacity {
			t.Fatalf("wire admit %d with the authority unreachable: status %d, want %d", i, res[0].Status, wire.StatusCapacity)
		}
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
	if res := rig.ctrl.AdmitBatch(rig.routeItems(t), nil); res[0].Err != nil {
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

// TestMemberAdmitsOnlyFromLeases: on a follower, every admit entry
// point — Admit, AdmitWithTenant, AdmitBatch — takes its capacity from
// the lease cells and every teardown path — Teardown, TeardownBatch —
// hands it back, with workers wanting more than the core link holds.
// The follower's own ledger stays empty throughout: a path that skipped
// the cells would admit against it. Its cells hold one active unit per
// live flow, their sums are exactly what the authority backs for the
// node, and its Active count is the flows it holds.
func TestMemberAdmitsOnlyFromLeases(t *testing.T) {
	const node = 1 // newEdgeRig's
	rig := newEdgeRig(t, func(t testing.TB) *admission.Controller { return hubController(t, 4, 150) }, 8)
	rig.attachSink()
	routeItem := rig.routeItems(t)
	rig.edge.renewNow(time.Now())
	ledgerEmpty := func() bool {
		for ci := 0; ci < rig.ctrl.ClassCount(); ci++ {
			for s := 0; s < rig.ctrl.ServerCount(); s++ {
				if in := rig.ctrl.LedgerInUseMicro(ci, s); in != 0 {
					t.Errorf("class %d server %d: the member's ledger holds %d", ci, s, in)
					return false
				}
			}
		}
		return true
	}
	// check compares the cells with the flows held and, after a renewal,
	// with the authority's backing.
	check := func(live []admission.FlowID) {
		t.Helper()
		ledgerEmpty()
		if got := rig.ctrl.Stats().Active; got != int64(len(live)) {
			t.Errorf("Active %d, the member holds %d flows", got, len(live))
		}
		rig.edge.renewNow(time.Now())
		backing := rig.auth.backingSnapshot()
		var active uint64
		for ri := range routeItem {
			active += rig.edge.cells[0][ri].v.Load() >> 32
			if sum, back := rig.edge.cellSum(0, int32(ri)), backing[backKey{node: node, ci: 0, ri: int32(ri)}]; sum != back {
				t.Errorf("route %d: cells hold %d, the authority backs %d", ri, sum, back)
			}
		}
		if active != uint64(len(live)) {
			t.Errorf("cells hold %d active units for %d live flows", active, len(live))
		}
	}

	var mu sync.Mutex
	var live []admission.FlowID
	var rejects atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []admission.FlowID
			var results []admission.BatchResult
			var errs []error
			items := make([]admission.BatchItem, 4)
			admitted := func(id admission.FlowID, err error) {
				switch {
				case err == nil && id.Node() == node:
					mine = append(mine, id)
				case errors.Is(err, admission.ErrCapacity):
					rejects.Add(1)
				default:
					t.Errorf("admit: ID %#x, %v", uint64(id), err)
				}
			}
			for i := 0; i < 300 && ledgerEmpty(); i++ {
				it := routeItem[rng.Intn(len(routeItem))]
				switch i % 3 {
				case 0:
					admitted(rig.ctrl.Admit(it.Class, it.Src, it.Dst))
				case 1:
					admitted(rig.ctrl.AdmitWithTenant(it.Class, "t", it.Src, it.Dst))
				default:
					for k := range items {
						items[k] = routeItem[rng.Intn(len(routeItem))]
					}
					results = rig.ctrl.AdmitBatch(items, results)
					for _, r := range results {
						admitted(r.ID, r.Err)
					}
				}
				if len(mine) < 48 {
					continue
				}
				for _, id := range mine[:8] {
					if err := rig.ctrl.Teardown(id); err != nil {
						t.Errorf("teardown %#x: %v", uint64(id), err)
					}
				}
				errs = rig.ctrl.TeardownBatch(mine[8:24], errs)
				for _, err := range errs {
					if err != nil {
						t.Errorf("batch teardown: %v", err)
					}
				}
				mine = mine[24:]
			}
			mu.Lock()
			live = append(live, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if rejects.Load() == 0 {
		t.Error("no admit was refused: the workers never wanted more than the leases hold")
	}
	check(live)
	for i, err := range rig.ctrl.TeardownBatch(live, nil) {
		if err != nil {
			t.Errorf("final teardown %d: %v", i, err)
		}
	}
	check(nil)
}
