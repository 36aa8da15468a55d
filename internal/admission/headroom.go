package admission

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Per-route headroom plane: the O(1) admit fast path (ROADMAP item 3).
//
// Instead of caching a per-route min-headroom figure and trying to keep
// it coherent with every ledger move, the plane holds a per-(class,
// route) *budget* of pre-reserved flow slots: a small lease carved out
// of the route's real headroom by one exact walk, then consumed one
// atomic compare-and-decrement at a time. A budgeted unit is *backed* —
// its rate is already reserved on every member server — so a fast admit
// never needs validation: the paper's per-server test was already run,
// wholesale, when the lease was taken.
//
// Exactness near saturation comes from two mechanisms:
//
//   - Guard band: a refill only takes a lease when the route's exact
//     headroom exceeds leaseGuard flows. Below that the fast path
//     disables itself and every admit runs the exact walk, so the last
//     leaseGuard admission slots on any route are always decided by the
//     paper's test, never by a cached figure.
//
//   - Reclaim: leased-but-unused budget is real reserved capacity, so
//     an exact walk that fails while sibling routes hold budget would
//     refuse a flow the paper's test (with no plane) would admit. The
//     fallback therefore drains the budgets of every route sharing a
//     hop with the failing route (one atomic Swap each, releasing the
//     backing), then retries — sequentially, a reject is returned only
//     when the route is genuinely full.
//
// Banded invalidation serves the *read* paths (fillAfter, and the
// freshness of any cached per-route figure): each (class, server)
// ledger counter is bucketed into ~bandCount power-of-two bands, and a
// reserve/release that crosses a band edge bumps the server's epoch.
// A cached route figure carries the sum of its member servers' epochs;
// a mismatch means some hop moved at least a band's width and the
// figure is recomputed. The fast admit itself never consults the
// ledger, so banding costs it nothing.
const (
	// maxLease bounds a route's unconsumed budget: at most this many
	// admission slots are held away from the exact ledger per (class,
	// route). Also the credit-back cap on teardown.
	maxLease = 64
	// leaseGuard is the exact-walk region: no lease is taken unless the
	// route's walked headroom strictly exceeds this many flows. It must
	// be >= maxLease so that even a route whose entire guard region is
	// transiently leased to siblings (before reclaim) stays admissible.
	leaseGuard = 64
	// bandCount is the target number of utilization bands per server
	// counter; band width is the largest power of two not exceeding
	// limit/bandCount.
	bandCount = 32
)

// planeEntry is one (class, route) cell, padded to a cache line so
// hot-route CAS traffic does not false-share with neighbors.
type planeEntry struct {
	// budget is the route's unconsumed lease in flow slots; always
	// >= 0 (consumers CAS b -> b-1 only from b > 0, reclaim Swaps to 0).
	budget atomic.Int64
	// mu serializes refills (and fill-cache writes), so a stampede on
	// an empty budget does one walk, not one per goroutine.
	mu sync.Mutex
	// fillStamp/fillBits cache fillAfter's worst-fill figure: bits is
	// the float64 image, stamp the sum of member-server band epochs it
	// was computed under (^0 = never computed). Writers hold mu and
	// store bits before stamp; readers double-check stamp around bits.
	fillStamp atomic.Uint64
	fillBits  atomic.Uint64
	// Pad to exactly 64 bytes: one cache line, and the entry index
	// becomes a shift instead of a multiply.
	_ [32]byte
}

// classPlane is one class's headroom plane.
type classPlane struct {
	entries []planeEntry
	// members[s] lists the route indexes traversing server s — the
	// reverse index reclaim and lease-adjusted reads walk. Built once
	// at construction.
	members [][]int32
}

// FastPathStats reports how admits were decided since construction (or
// since recovery; replayed admits are excluded).
type FastPathStats struct {
	// Hits were served by the O(1) budget decrement.
	Hits uint64
	// Stale admits waited on a refill (budget empty or contended) but
	// were still served from a lease, not an exact verdict walk.
	Stale uint64
	// Fallback admission attempts ran the exact per-server walk:
	// refill found the route inside the guard band, leasing is off, or
	// a NeedFill policy is installed. Includes both admits and rejects.
	Fallback uint64
}

// classHint is one immutable (name, index) pair; Controller.hint caches
// the most recent lookup so repeated admits of the same class skip the
// map (a string compare against an interned name is ~4x cheaper).
type classHint struct {
	name string
	ci   int
}

// classIndex resolves a class name, serving repeats from the hint
// cache. The hint array is preallocated so misses store a pointer into
// it and never allocate.
func (c *Controller) classIndex(name string) (int, bool) {
	if h := c.hint.Load(); h != nil && h.name == name {
		return h.ci, true
	}
	return c.classIndexSlow(name)
}

func (c *Controller) classIndexSlow(name string) (int, bool) {
	ci, ok := c.byName[name]
	if ok {
		c.hint.Store(&c.hintArr[ci])
	}
	return ci, ok
}

// buildPlane constructs the per-class planes, the reverse index, and
// the band shifts. Called once from NewController.
func (c *Controller) buildPlane() {
	nsrv := c.nsrv
	c.plane = make([]classPlane, len(c.classes))
	c.bandEpoch = make([]atomic.Uint32, len(c.classes)*nsrv)
	c.bandShift = make([]uint8, len(c.classes)*nsrv)
	c.hintArr = make([]classHint, len(c.classes))
	for ci := range c.classes {
		c.hintArr[ci] = classHint{name: c.classes[ci].Class.Name, ci: ci}
		nr := len(c.paths[ci])
		p := &c.plane[ci]
		p.entries = make([]planeEntry, nr)
		for r := range p.entries {
			p.entries[r].fillStamp.Store(^uint64(0))
		}
		p.members = make([][]int32, nsrv)
		for r := 0; r < nr; r++ {
			for _, s := range c.paths[ci][r] {
				p.members[s] = append(p.members[s], int32(r))
			}
		}
		for s := 0; s < nsrv; s++ {
			width := c.limits[ci][s] / bandCount
			sh := 0
			if width > 1 {
				sh = bits.Len64(uint64(width)) - 1
			}
			c.bandShift[ci*nsrv+s] = uint8(sh)
		}
	}
}

// noteBand bumps server idx's band epoch when a ledger move crossed a
// band edge.
func (c *Controller) noteBand(idx int, old, now int64) {
	sh := c.bandShift[idx]
	if old>>sh != now>>sh {
		c.bandEpoch[idx].Add(1)
	}
}

// ledReserve / ledRelease wrap the raw ledger with band-epoch
// maintenance. Every ledger move in the controller funnels through
// these two.
func (c *Controller) ledReserve(idx int, amt, limit int64) bool {
	nu, ok := c.led.tryReserve(idx, amt, limit)
	if ok {
		c.noteBand(idx, nu-amt, nu)
	}
	return ok
}

func (c *Controller) ledRelease(idx int, amt int64) {
	nu := c.led.release(idx, amt)
	c.noteBand(idx, nu+amt, nu)
}

// walkHeadroom is the exact per-server headroom walk: the number of
// additional class-ci flows route ri can hold, by raw ledger counters
// (leases count as used — that is what makes leased units backed).
func (c *Controller) walkHeadroom(ci int, ri int32) int64 {
	rate := c.rates[ci]
	base := ci * c.nsrv
	min := int64(math.MaxInt64)
	for _, s := range c.paths[ci][ri] {
		free := c.limits[ci][s] - c.led.inUse(base+s)
		if free < 0 {
			free = 0
		}
		if n := free / rate; n < min {
			min = n
		}
	}
	return min
}

// tryLease reserves n flow-slots of backing on every hop of route ri —
// the wholesale form of the paper's utilization test. All-or-nothing.
func (c *Controller) tryLease(ci int, ri int32, n int64) bool {
	amt := n * c.rates[ci]
	base := ci * c.nsrv
	servers := c.paths[ci][ri]
	for i, s := range servers {
		if !c.ledReserve(base+s, amt, c.limits[ci][s]) {
			for _, t := range servers[:i] {
				c.ledRelease(base+t, amt)
			}
			return false
		}
	}
	return true
}

// admitReserve decides one admission: O(1) budget hit when possible,
// refill or exact walk otherwise. The returned bottleneck is -1 on
// success and on fast rejects without a walked verdict (there are
// none: every reject comes from the exact walk).
func (c *Controller) admitReserve(ci int, ri int32) (bottleneck int, ok bool) {
	if c.budgetHit(ci, ri) {
		return -1, true
	}
	return c.admitReserveSlow(ci, ri)
}

// budgetHit is the whole steady-state admission test: one budget
// decrement, attempted once. Call-free so it inlines into admit.
func (c *Controller) budgetHit(ci int, ri int32) bool {
	if !c.fastOK {
		return false
	}
	e := &c.plane[ci].entries[ri]
	b := e.budget.Load()
	return b > 0 && e.budget.CompareAndSwap(b, b-1)
}

// budgetPut is budgetHit's teardown mirror: credit one slot back,
// attempted once. Call-free so it inlines into Teardown.
func (c *Controller) budgetPut(ci int, ri int32) bool {
	if !c.fastOK {
		return false
	}
	e := &c.plane[ci].entries[ri]
	b := e.budget.Load()
	return b < maxLease && e.budget.CompareAndSwap(b, b+1)
}

// admitReserveSlow is everything past the single-attempt budget hit:
// the CAS retry loop (a failed CAS under contention retries before
// falling to the refill lock), the refill path, and the exact-walk
// fallback when the fast path is off.
func (c *Controller) admitReserveSlow(ci int, ri int32) (bottleneck int, ok bool) {
	if !c.fastOK {
		if c.lease != nil {
			var run LeaseRun // a run of one
			ok := c.lease.Take(&run, ci, ri)
			c.lease.Done(&run)
			return -1, ok
		}
		s, ok := c.reserve(ci, ri)
		if ok {
			c.fbAdmits.Add(1)
		} else {
			c.fbRejects.Add(1)
		}
		return s, ok
	}
	e := &c.plane[ci].entries[ri]
	for b := e.budget.Load(); b > 0; b = e.budget.Load() {
		if e.budget.CompareAndSwap(b, b-1) {
			return -1, true
		}
	}
	return c.slowAdmitReserve(ci, ri, e)
}

// slowAdmitReserve is the refill path: under the entry lock, re-check
// the budget (a racing refiller may have filled it), then try to take
// a fresh lease; outside the guard band this succeeds in one walk.
// Otherwise fall through to the exact, reclaiming walk.
func (c *Controller) slowAdmitReserve(ci int, ri int32, e *planeEntry) (int, bool) {
	e.mu.Lock()
	for b := e.budget.Load(); b > 0; b = e.budget.Load() {
		if e.budget.CompareAndSwap(b, b-1) {
			e.mu.Unlock()
			c.staleAdmits.Add(1)
			return -1, true
		}
	}
	for attempt := 0; attempt < 3; attempt++ {
		lease := c.walkHeadroom(ci, ri) - leaseGuard
		if lease <= 0 {
			break // guard band: the exact walk decides from here
		}
		if lease > maxLease {
			lease = maxLease
		}
		if c.tryLease(ci, ri, lease) {
			// One unit consumed by this admit, the rest published.
			e.budget.Add(lease - 1)
			e.mu.Unlock()
			c.staleAdmits.Add(1)
			return -1, true
		}
		// Raced with enough traffic to invalidate the walked figure;
		// re-walk with the tighter ledger.
	}
	e.mu.Unlock()
	s, ok := c.reserveReclaim(ci, ri)
	if ok {
		c.fbAdmits.Add(1)
	} else {
		c.fbRejects.Add(1)
	}
	return s, ok
}

// reserveReclaim is the exact walk with lease reclaim: if the walk
// fails while sibling routes hold unconsumed budget on the route's
// hops, that budget is drained (returning its backing to the ledger)
// and the walk retried, so a reject is never caused by the plane's own
// hoarding.
func (c *Controller) reserveReclaim(ci int, ri int32) (int, bool) {
	s, ok := c.reserve(ci, ri)
	if ok || !c.fastOK {
		return s, ok
	}
	if !c.reclaimRoute(ci, ri) {
		return s, false
	}
	return c.reserve(ci, ri)
}

// reclaimRoute drains the budget of every route sharing a hop with ri
// (including ri itself), reporting whether any backing was freed.
func (c *Controller) reclaimRoute(ci int, ri int32) bool {
	freed := false
	for _, s := range c.paths[ci][ri] {
		for _, r := range c.plane[ci].members[s] {
			if c.drainEntry(ci, r) {
				freed = true
			}
		}
	}
	return freed
}

// drainEntry zeroes one route's budget and releases its backing.
func (c *Controller) drainEntry(ci int, r int32) bool {
	b := c.plane[ci].entries[r].budget.Swap(0)
	if b <= 0 {
		return false
	}
	amt := b * c.rates[ci]
	base := ci * c.nsrv
	for _, s := range c.paths[ci][r] {
		c.ledRelease(base+s, amt)
	}
	return true
}

// releaseFlow returns one flow's reservation on teardown. With the
// fast path on, the freed capacity is credited to the route's budget —
// the backing stays reserved and the next admit on the route is a
// budget hit — unless the budget is already at maxLease, in which case
// the ledger is released exactly.
func (c *Controller) releaseFlow(ci int, ri int32) {
	if c.budgetPut(ci, ri) {
		return
	}
	c.releaseFlowSlow(ci, ri)
}

func (c *Controller) releaseFlowSlow(ci int, ri int32) {
	if c.fastOK {
		e := &c.plane[ci].entries[ri]
		for b := e.budget.Load(); b < maxLease; b = e.budget.Load() {
			if e.budget.CompareAndSwap(b, b+1) {
				return
			}
		}
	}
	c.release(ci, ri)
}

// creditBudget returns n already-backed flow slots to route ri's
// budget, releasing exactly the surplus the maxLease cap refuses.
// Used by AdmitBatch to hand back unused claims.
func (c *Controller) creditBudget(ci int, ri int32, n int64) {
	e := &c.plane[ci].entries[ri]
	for n > 0 {
		b := e.budget.Load()
		room := maxLease - b
		if room <= 0 {
			break
		}
		add := n
		if add > room {
			add = room
		}
		if e.budget.CompareAndSwap(b, b+add) {
			n -= add
		}
	}
	if n > 0 {
		c.releaseN(ci, ri, n)
	}
}

// releaseN returns n flows' reservations on route ri to the ledger in
// one add per server.
func (c *Controller) releaseN(ci int, ri int32, n int64) {
	amt := n * c.rates[ci]
	base := ci * c.nsrv
	for _, s := range c.paths[ci][ri] {
		c.ledRelease(base+s, amt)
	}
}

// claimChunk takes up to want slots from route ri's budget in one CAS —
// the batch path's single atomic sub per route per batch.
func (c *Controller) claimChunk(ci int, ri int32, want int64) int64 {
	e := &c.plane[ci].entries[ri]
	for {
		b := e.budget.Load()
		if b <= 0 {
			return 0
		}
		take := want
		if take > b {
			take = b
		}
		if e.budget.CompareAndSwap(b, b-take) {
			return take
		}
	}
}

// leasedMicro sums the unconsumed budget held by routes of class ci
// traversing server s, in microbits/s. Reads race with budget movement;
// each term is >= 0, so the lease-adjusted counter never exceeds the
// raw one (see usedMicro).
func (c *Controller) leasedMicro(ci, s int) int64 {
	if !c.fastOK {
		return 0
	}
	sum := int64(0)
	p := &c.plane[ci]
	for _, r := range p.members[s] {
		sum += p.entries[r].budget.Load()
	}
	return sum * c.rates[ci]
}

// usedMicro is server s's class-ci reservation net of unconsumed
// leases — the externally meaningful "in use by admitted flows" figure
// behind Utilization, MaxUtilization, Headroom and fillAfter. Torn
// reads can only under-subtract (budgets are non-negative), so the
// result never exceeds the raw ledger value, which itself never
// exceeds the limit; at quiesce it is exact.
func (c *Controller) usedMicro(ci, s int) int64 {
	u := c.led.inUse(ci*c.nsrv+s) - c.leasedMicro(ci, s)
	if u < 0 {
		u = 0
	}
	return u
}

// SetFastPath enables or disables the headroom plane (default on).
// Like SetPolicy it must be called before the controller serves
// traffic: turning the plane off does not drain already-leased budget.
// The exact-walk configuration is what the equivalence property test
// compares the fast path against.
func (c *Controller) SetFastPath(on bool) {
	c.fastOn = on
	c.updateFastOK()
}

// updateFastOK recomputes whether admits may lease. NeedFill policies
// meter the exact fill headroom (reserve-headroom gates on it), so any
// leased-but-unconsumed budget would distort their input; they get the
// exact walk and an exact, band-cached fillAfter instead. A lease
// source replaces the plane outright: its takes run where the exact
// walk would.
func (c *Controller) updateFastOK() {
	c.fastOK = c.fastOn && !c.policyFill && c.lease == nil
}

// FastPathStats returns the fast-path outcome counters. Hits are
// derived: admits not accounted as stale or fallback. The figures are
// cumulative since construction; FinishRecovery excludes replayed
// admits.
func (c *Controller) FastPathStats() FastPathStats {
	stale := c.staleAdmits.Load()
	fba := c.fbAdmits.Load()
	adm := c.admittedCount() - c.recoveredAdmits
	hits := uint64(0)
	if adm > stale+fba {
		hits = adm - stale - fba
	}
	return FastPathStats{Hits: hits, Stale: stale, Fallback: fba + c.fbRejects.Load()}
}
