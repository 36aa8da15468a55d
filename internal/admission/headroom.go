package admission

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Per-route lease cells: the O(1) admit path (ROADMAP item 3), on a
// single node and on a cluster member alike.
//
// Each (class, route) pair owns one Cell: a budget of flow slots that
// are already *backed* — their rate is reserved on every server of the
// route, the paper's per-server test run for them wholesale — spent by
// one atomic compare-and-decrement per admit and credited back by one
// increment per teardown. A take from a cell never needs validation.
//
// Where a dry cell's units come from is the controller's Refill
// (cluster.go). A single node runs the local refill below: a lease
// carved out of the route's headroom on this controller's own ledger by
// one exact walk, exact near saturation through two mechanisms:
//
//   - Guard band: a refill only takes a lease when the route's exact
//     headroom exceeds leaseGuard flows. Below that every admit runs the
//     exact walk, so the last leaseGuard admission slots on any route
//     are always decided by the paper's test, never by a cached figure.
//
//   - Reclaim: leased-but-unused budget is real reserved capacity, so
//     an exact walk that fails while sibling routes hold budget would
//     refuse a flow the paper's test (with no cells) would admit. The
//     walk therefore drains the budgets of every route sharing a hop
//     with the failing route (one atomic Swap each, releasing the
//     backing), then retries — a reject is returned only when the route
//     is genuinely full.
//
// A cluster member installs a remote refill instead, whose units the
// authority reserved on its ledger and which stay spendable only until
// the cell's deadline.
//
// Banded invalidation serves the *read* paths (fillAfter): each (class,
// server) ledger counter is bucketed into ~bandCount power-of-two
// bands, and a reserve/release that crosses a band edge bumps the
// server's epoch. A cached route figure carries the sum of its member
// servers' epochs; a mismatch means some hop moved at least a band's
// width and the figure is recomputed.
const (
	// maxLease bounds a route's unconsumed budget under the local refill:
	// at most this many admission slots are held away from the exact
	// ledger per (class, route). Also the credit-back cap on teardown.
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
	// lowUntouched is a cell's low-water mark while no take has spent
	// from it since ResetLow.
	lowUntouched = math.MaxInt64
)

// Cell is one (class, route) lease cell, padded to a cache line so
// hot-route CAS traffic does not false-share with neighbors. Admits,
// batch claims and teardowns only move units between its budget and
// flows; only the refill changes how many the cell holds in all.
type Cell struct {
	// budget is the unconsumed lease in flow slots; always >= 0 (takes
	// CAS b -> b-n only from b >= n, trims and reclaims only down to 0).
	budget atomic.Int64
	// deadline is when the budget stops being spendable, in Unix
	// nanoseconds; 0 means never, so a take from a cell without one
	// never reads the clock.
	deadline atomic.Int64
	// low is the lowest budget a take has left behind since ResetLow
	// (lowUntouched when none has): what lies below it no admit reached.
	low atomic.Int64
	// mu serializes the local refill (and fill-cache writes), so a
	// stampede on an empty budget does one walk, not one per goroutine.
	mu sync.Mutex
	// Pad to exactly 64 bytes: one cache line.
	_ [32]byte
}

// open reports whether the budget is spendable now.
func (e *Cell) open() bool {
	d := e.deadline.Load()
	return d == 0 || time.Now().UnixNano() < d
}

// spent folds the budget a take left behind into the low-water mark.
func (e *Cell) spent(left int64) {
	for l := e.low.Load(); left < l; l = e.low.Load() {
		if e.low.CompareAndSwap(l, left) {
			return
		}
	}
}

// shiftLow moves a set low-water mark with a budget change the refill
// made, so that it keeps measuring what takes did.
func (e *Cell) shiftLow(by int64) {
	for {
		l := e.low.Load()
		if l == lowUntouched {
			return
		}
		if e.low.CompareAndSwap(l, max(l+by, 0)) {
			return
		}
	}
}

// Take moves one unit from the budget to a flow while the deadline
// holds, retrying the CAS under contention, and reports whether it did.
func (e *Cell) Take() bool {
	if !e.open() {
		return false
	}
	for b := e.budget.Load(); b > 0; b = e.budget.Load() {
		if e.budget.CompareAndSwap(b, b-1) {
			e.spent(b - 1)
			return true
		}
	}
	return false
}

// claim takes up to want units in one CAS while the deadline holds —
// the batch path's single atomic sub per route per batch — and returns
// how many it took and the budget it left. The claimer folds the left
// budget into the low-water mark once it knows how much it spent.
func (e *Cell) claim(want int64) (took, left int64) {
	if !e.open() {
		return 0, 0
	}
	for {
		b := e.budget.Load()
		if b <= 0 {
			return 0, 0
		}
		took = min(want, b)
		if e.budget.CompareAndSwap(b, b-took) {
			return took, b - took
		}
	}
}

// Budget returns the cell's unconsumed lease.
func (e *Cell) Budget() int64 { return e.budget.Load() }

// Renew grants n more units and moves the deadline, in Unix
// nanoseconds (0 = never). A set low-water mark rises with the units: a
// grant is not something takes left untouched, and a cell that looked
// spent must not look spent on what it was just given.
func (e *Cell) Renew(n, deadline int64) {
	if n > 0 {
		e.budget.Add(n)
		e.shiftLow(n)
	}
	e.deadline.Store(deadline)
}

// Close empties the cell for good: its deadline is long past, so a unit
// a teardown puts back later can never be taken.
func (e *Cell) Close() {
	e.deadline.Store(1)
	e.Trim(0)
}

// Trim cuts the budget to at most keep and returns how much it cut.
func (e *Cell) Trim(keep int64) int64 {
	for {
		b := e.budget.Load()
		if b <= keep {
			return 0
		}
		if e.budget.CompareAndSwap(b, keep) {
			return b - keep
		}
	}
}

// TakeUntouched removes the part of the budget no take has reached
// since ResetLow — min(low, budget) — and returns how much that was.
func (e *Cell) TakeUntouched() int64 {
	for {
		b := e.budget.Load()
		t := min(e.low.Load(), b)
		if t <= 0 {
			return 0
		}
		if e.budget.CompareAndSwap(b, b-t) {
			e.shiftLow(-t)
			return t
		}
	}
}

// Low returns the low-water mark, and false when no take has spent
// from the cell since ResetLow.
func (e *Cell) Low() (int64, bool) {
	l := e.low.Load()
	return l, l != lowUntouched
}

// ResetLow opens a new low-water window.
func (e *Cell) ResetLow() { e.low.Store(lowUntouched) }

// MarkDry records a take refused for want of budget: the cell counts as
// in use, all of its budget reached.
func (e *Cell) MarkDry() { e.low.Store(0) }

// fillCache is fillAfter's per-route worst-fill figure: bits is the
// float64 image, stamp the sum of member-server band epochs it was
// computed under (^0 = never computed). Writers hold the route cell's
// mu and store bits before stamp; readers double-check stamp around
// bits.
type fillCache struct {
	stamp, bits atomic.Uint64
}

// FastPathStats reports how admits were decided since construction (or
// since recovery; replayed admits are excluded).
type FastPathStats struct {
	// Hits were served by a take from the route's cell.
	Hits uint64
	// Stale admits found the cell empty (or past its deadline) and were
	// served by its refill, not by an exact verdict walk.
	Stale uint64
	// Fallback admission attempts ran the exact per-server walk: the
	// local refill found the route inside the guard band, the fast path
	// is off, or a NeedFill policy is installed. Includes both admits and
	// rejects.
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

// buildPlane constructs the cells, the reverse index, the fill caches
// and the band shifts. Called once from NewController.
func (c *Controller) buildPlane() {
	nsrv := c.nsrv
	c.cells = make([][]Cell, len(c.classes))
	c.members = make([][][]int32, len(c.classes))
	c.fills = make([][]fillCache, len(c.classes))
	c.bandEpoch = make([]atomic.Uint32, len(c.classes)*nsrv)
	c.bandShift = make([]uint8, len(c.classes)*nsrv)
	c.hintArr = make([]classHint, len(c.classes))
	for ci := range c.classes {
		c.hintArr[ci] = classHint{name: c.classes[ci].Class.Name, ci: ci}
		nr := len(c.paths[ci])
		c.cells[ci] = make([]Cell, nr)
		c.fills[ci] = make([]fillCache, nr)
		c.members[ci] = make([][]int32, nsrv)
		for r := 0; r < nr; r++ {
			c.cells[ci][r].ResetLow()
			c.fills[ci][r].stamp.Store(^uint64(0))
			for _, s := range c.paths[ci][r] {
				c.members[ci][s] = append(c.members[ci][s], int32(r))
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

// admitReserve decides one admission: the whole steady-state test is
// one budget decrement from a cell without a deadline, attempted once;
// everything else is the slow path. The returned bottleneck is -1 on
// success and on refusals no exact walk decided.
func (c *Controller) admitReserve(ci int, ri int32) (bottleneck int, ok bool) {
	if c.fastOK {
		e := &c.cells[ci][ri]
		b := e.budget.Load()
		if b > 0 && e.deadline.Load() == 0 && e.budget.CompareAndSwap(b, b-1) {
			if b-1 < e.low.Load() {
				e.spent(b - 1)
			}
			return -1, true
		}
	}
	return c.admitReserveSlow(ci, ri)
}

// budgetPut is admitReserve's teardown mirror: credit one slot back,
// attempted once. Call-free so it inlines into Teardown.
func (c *Controller) budgetPut(ci int, ri int32) bool {
	if !c.fastOK {
		return false
	}
	e := &c.cells[ci][ri]
	b := e.budget.Load()
	return b < c.cellCap && e.budget.CompareAndSwap(b, b+1)
}

// admitReserveSlow is everything past the single-attempt budget take:
// the exact walk when the fast path is off; otherwise the take with its
// deadline check and CAS retries, and the refill when the cell is dry.
func (c *Controller) admitReserveSlow(ci int, ri int32) (bottleneck int, ok bool) {
	if !c.fastOK {
		s, ok := c.reserve(ci, ri)
		c.tally(ok, true)
		return s, ok
	}
	if c.cells[ci][ri].Take() {
		return -1, true
	}
	return c.refillTake(ci, ri)
}

// refillTake asks the refill for a unit of a dry cell.
func (c *Controller) refillTake(ci int, ri int32) (int, bool) {
	s, ok, walked := c.refill.Take(ci, ri)
	c.tally(ok, walked)
	return s, ok
}

// tally counts one decision that missed the budget take (see
// FastPathStats).
func (c *Controller) tally(ok, walked bool) {
	switch {
	case walked && ok:
		c.fbAdmits.Add(1)
	case walked:
		c.fbRejects.Add(1)
	case ok:
		c.staleAdmits.Add(1)
	}
}

// localRefill leases a dry cell's units from the controller's own
// ledger.
type localRefill struct{ c *Controller }

func (l localRefill) Take(ci int, ri int32) (int, bool, bool) { return l.c.slowAdmitReserve(ci, ri) }

// slowAdmitReserve is the local refill: under the cell lock, re-check
// the budget (a racing refiller may have filled it), then try to take
// a fresh lease; outside the guard band this succeeds in one walk.
// Otherwise fall through to the exact, reclaiming walk.
func (c *Controller) slowAdmitReserve(ci int, ri int32) (bottleneck int, ok, walked bool) {
	e := &c.cells[ci][ri]
	e.mu.Lock()
	if e.Take() {
		e.mu.Unlock()
		return -1, true, false
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
			return -1, true, false
		}
		// Raced with enough traffic to invalidate the walked figure;
		// re-walk with the tighter ledger.
	}
	e.mu.Unlock()
	s, ok := c.reserveReclaim(ci, ri)
	return s, ok, true
}

// reserveReclaim is the exact walk with lease reclaim: if the walk
// fails while sibling routes hold unconsumed budget on the route's
// hops, that budget is drained (returning its backing to the ledger)
// and the walk retried, so a reject is never caused by the cells' own
// hoarding.
func (c *Controller) reserveReclaim(ci int, ri int32) (int, bool) {
	s, ok := c.reserve(ci, ri)
	if ok || !c.reclaimRoute(ci, ri) {
		return s, ok
	}
	return c.reserve(ci, ri)
}

// reclaimRoute drains the budget of every route sharing a hop with ri
// (including ri itself), reporting whether any backing was freed.
func (c *Controller) reclaimRoute(ci int, ri int32) bool {
	freed := false
	for _, s := range c.paths[ci][ri] {
		for _, r := range c.members[ci][s] {
			if c.drainEntry(ci, r) {
				freed = true
			}
		}
	}
	return freed
}

// drainEntry zeroes one route's budget and releases its backing.
func (c *Controller) drainEntry(ci int, r int32) bool {
	b := c.cells[ci][r].budget.Swap(0)
	if b <= 0 {
		return false
	}
	c.releaseN(ci, r, b)
	return true
}

// release returns n flows' reservations on route ri of class ci: to
// the route's cell while the fast path is on (the backing stays
// reserved and the next admit on the route is a budget hit), to the
// ledger otherwise.
func (c *Controller) release(ci int, ri int32, n int64) {
	if c.fastOK {
		c.put(ci, ri, n)
		return
	}
	c.releaseN(ci, ri, n)
}

// put credits n already-backed flow slots to route ri's cell,
// releasing to the ledger exactly the surplus the cell cap refuses.
func (c *Controller) put(ci int, ri int32, n int64) {
	e := &c.cells[ci][ri]
	for n > 0 {
		b := e.budget.Load()
		room := c.cellCap - b
		if room <= 0 {
			break
		}
		add := min(n, room)
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

// leasedMicro sums the unconsumed budget held by routes of class ci
// traversing server s, in microbits/s, when this controller's ledger
// backs the cells (the local refill); cells another ledger backs hold
// nothing of this one. Reads race with budget movement; each term is
// >= 0, so the lease-adjusted counter never exceeds the raw one (see
// usedMicro).
func (c *Controller) leasedMicro(ci, s int) int64 {
	if !c.fastOK || !c.ledgerCells {
		return 0
	}
	sum := int64(0)
	for _, r := range c.members[ci][s] {
		sum += c.cells[ci][r].budget.Load()
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

// SetFastPath enables or disables the lease cells (default on). Like
// SetPolicy it must be called before the controller serves traffic:
// turning the cells off does not drain already-leased budget. The
// exact-walk configuration is what the equivalence property test
// compares the fast path against.
func (c *Controller) SetFastPath(on bool) {
	c.fastOn = on
	c.updateFastOK()
}

// updateFastOK recomputes whether admits take from the cells. NeedFill
// policies meter the exact fill headroom (reserve-headroom gates on
// it), so any leased-but-unconsumed budget would distort their input;
// they get the exact walk and an exact, band-cached fillAfter instead.
// Cells another ledger backs are the only capacity this controller
// has: its own ledger holds none of it, so they stay on.
func (c *Controller) updateFastOK() {
	c.fastOK = !c.ledgerCells || c.fastOn && !c.policyFill
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
