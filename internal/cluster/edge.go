package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/admission"
)

// The edge plane is where every admit in the cluster lands, on every
// node. Each (class, route) pair owns one lease cell whose packed
// atomic word splits the edge's delegated capacity into admitted flows
// (active, high 32 bits) and spendable headroom (budget, low 32 bits).
// An admit is one CAS moving a unit from budget to active; a teardown
// moves it back. Both preserve the cell's sum — only the renewer, one
// serialized caller under leaseMu, changes the sum by applying grants
// or trimming idle budget — so the sum a renewal reports is exact no
// matter how many admits race it, and the authority's backing for this
// edge is always at least the cell sum: the utilization bound cannot
// be overdrawn from here.
//
// The plane is its controller's lease source (admission.LeaseSource):
// every admit on the node runs the controller's own path — class,
// route, policy, registry, decision record — and takes its unit from
// a cell where a single node would reserve on its ledger; every
// teardown puts the unit back. The plane itself holds only what is
// lease-specific: cells, TTL, dry and down backoff, the sync grant,
// reclaim, renewal and detach.
//
// A cell's budget is spendable only while its lease TTL holds. When
// the TTL lapses (the authority is unreachable or rejected the cell's
// renewal), admits fall to the sync path, which performs a grant round
// trip inline; failing that, the admit is rejected. That fail-safe is
// the failover story: edges never admit past what a live authority has
// durably accounted.

const (
	budgetMask = (uint64(1) << 32) - 1
	activeUnit = uint64(1) << 32
	// unitBack, added to a cell's word, moves one unit from active back
	// to budget (active−1, budget+1; the sum is preserved).
	unitBack = ^(activeUnit - 1) + 1

	// maxLeaseItems bounds one lease call (well under wire.MaxFrameOps
	// and MaxPayload).
	maxLeaseItems = 2048

	// lowUntouched is a cell's low-water mark while no admit has spent
	// from it since the last renewal.
	lowUntouched = ^uint32(0)

	// Lease-reject causes reported to the observer.
	causeDry  = "dry"
	causeDown = "down"
)

// cell is one (class, route) lease cell.
type cell struct {
	v          atomic.Uint64 // active<<32 | budget
	validUntil atomic.Int64  // unix nanos; budget spendable while now < validUntil

	// low is the lowest budget an admit has left behind since the last
	// renewal (lowUntouched when none has): with start, the cell's
	// working set. What lies below it was never reached, so it is what
	// the renewer may trim and a starved sibling may take back. A reject
	// for want of budget writes 0, so a dry cell still counts as in use.
	low atomic.Uint32

	// dryUntil backs off the sync path after a grant round trip came
	// back empty-handed: until it passes, budgetless admits reject
	// locally instead of repeating the round trip per attempt. A
	// teardown returning budget makes the cell admittable again
	// immediately (the fast path runs first), and the renewer keeps
	// asking for budget in the background, so a dry spell ends as soon
	// as capacity exists — the backoff only caps the RPC rate of
	// rejections while the cluster is saturated.
	dryUntil atomic.Int64

	// The rest is guarded by the plane's leaseMu.

	// start is the budget the renewal window opened with plus every
	// grant since; start − low is how deep the window's admits dipped
	// into it, and prevDip is that figure for the window before.
	start   uint64
	prevDip uint64

	// lastAcked is the sum the authority last acknowledged for this
	// cell (its backing). A cell is reported while its sum or lastAcked
	// is nonzero, so the authority always hears about a cell going idle
	// exactly once.
	lastAcked uint64
}

// noteLow folds the budget an admit left behind into the low-water
// mark.
func (c *cell) noteLow(bud uint32) {
	for {
		l := c.low.Load()
		if bud >= l || c.low.CompareAndSwap(l, bud) {
			return
		}
	}
}

// shiftLow moves a set low-water mark with a budget change the lease
// side made (a grant adds, a reclaim takes), so that it keeps measuring
// what admits did.
func (c *cell) shiftLow(by int64) {
	for {
		l := c.low.Load()
		if l == lowUntouched {
			return
		}
		nl := int64(l) + by
		if nl < 0 {
			nl = 0
		}
		if c.low.CompareAndSwap(l, uint32(nl)) {
			return
		}
	}
}

// dip is how far below its opening level the window's admits have
// taken the budget so far. Caller holds leaseMu.
func (c *cell) dip() uint64 {
	if low := uint64(c.low.Load()); low < c.start {
		return c.start - low
	}
	return 0
}

// keep is the standing budget the cell's working set calls for: one
// unit plus twice the deeper of this window's and the last window's
// dip, nothing when no admit has touched the cell this window. Churn
// is self-financing — a teardown returns its unit to the same cell —
// so standing budget only rides the gap between admits arriving and
// capacity returning, and the dip is that gap as measured. Whatever a
// cell holds beyond it is a hoard: a granted block never comes back
// while its cell stays warm, and a hub server's ledger fills with
// blocks parked on routes that are not using them. Caller holds
// leaseMu.
func (c *cell) keep() uint64 {
	if c.low.Load() == lowUntouched {
		return 0
	}
	return 1 + 2*max(c.dip(), c.prevDip)
}

// takeUntouched removes from the cell's budget the part no admit has
// reached since the last renewal — min(low, budget) — and returns how
// much that was. Caller holds leaseMu.
func (c *cell) takeUntouched() uint64 {
	for {
		v := c.v.Load()
		t := min(uint64(c.low.Load()), v&budgetMask)
		if t == 0 {
			return 0
		}
		if c.v.CompareAndSwap(v, v-t) {
			c.start -= min(t, c.start)
			c.shiftLow(-int64(t))
			return t
		}
	}
}

// grantFunc performs one lease call: the grants, aligned with items
// (leaseRejected marks items the authority refused to account), go to
// grants[:0]; ttl is the renewal deadline for the non-rejected items.
// Called under leaseMu.
type grantFunc func(items []leaseItem, grants []uint64) (_ []uint64, ttl time.Duration, err error)

// edgePlane is a node's lease cells, its controller's lease source.
type edgePlane struct {
	ctrl  *admission.Controller
	cfg   Config
	obs   Observer
	cells [][]cell // [class][route]
	// through[class][server] lists the class's routes crossing the
	// server: the cells that compete for one ledger entry.
	through [][][]int32

	// leaseMu serializes every sum-changing operation: renewals, sync
	// grants, trims, reclaims and detach. Admits and teardowns never
	// take it.
	leaseMu    sync.Mutex
	grant      grantFunc
	lastRenew  time.Time
	fullReport bool // next renewal reports every cell (reattach)
	// items and itemCells (aligned) gather the next lease call, and
	// grants takes its answer: scratch every renewal and reclaim reuses.
	// add and flush keep items empty between calls.
	items     []leaseItem
	itemCells []*cell
	grants    []uint64
	// seen[route] == stamp marks a route already gathered by the reclaim
	// in progress.
	seen  []uint32
	stamp uint32

	// downUntil is set when a grant call fails outright (authority
	// unreachable or mid-failover): until it passes, sync admits reject
	// immediately instead of each queueing behind leaseMu for a full
	// RPC timeout — a convoy that would also stall the node control
	// loop's renewal tick and with it the failure-detector probes. The
	// periodic renewer keeps probing and clears it on the first
	// successful grant call.
	downUntil atomic.Int64
}

func newEdgePlane(ctrl *admission.Controller, cfg Config, obs Observer, grant grantFunc) *edgePlane {
	e := &edgePlane{ctrl: ctrl, cfg: cfg, obs: obs, grant: grant}
	e.cells = make([][]cell, ctrl.ClassCount())
	e.through = make([][][]int32, len(e.cells))
	for ci := range e.cells {
		e.cells[ci] = make([]cell, ctrl.RouteCount(ci))
		e.through[ci] = make([][]int32, ctrl.ServerCount())
		for ri := range e.cells[ci] {
			e.cells[ci][ri].low.Store(lowUntouched)
			for _, s := range ctrl.RouteServers(ci, int32(ri)) {
				e.through[ci][s] = append(e.through[ci][s], int32(ri))
			}
		}
		if n := len(e.cells[ci]); n > len(e.seen) {
			e.seen = make([]uint32, n)
		}
	}
	e.fullReport = true // first renewal after start is a reattach
	ctrl.SetLeaseSource(e, cfg.NodeID)
	return e
}

// Take implements admission.LeaseSource: one CAS against the cell in
// the common case, a grant round trip on a miss. The run's clock is
// read once, by its first take.
func (e *edgePlane) Take(run *admission.LeaseRun, ci int, ri int32) bool {
	if run.Now == 0 {
		run.Now = time.Now().UnixNano()
	}
	c := &e.cells[ci][ri]
	if e.tryLocal(c, run.Now) {
		run.Local++
		return true
	}
	if run.Now < c.dryUntil.Load() {
		// A recent grant round trip found no headroom; reject locally
		// until the backoff passes instead of hammering the authority.
		// Still a demand signal: the low mark at 0 keeps the cell in use,
		// so the renewer asks for budget the moment capacity frees up.
		c.low.Store(0)
		run.Dry++
		return false
	}
	return e.syncAdmit(ci, ri, c, run.Now)
}

// Put implements admission.LeaseSource: the units move back from
// active to budget, staying leased to this edge for reuse.
func (e *edgePlane) Put(ci int, ri int32, n int64) {
	e.cells[ci][ri].v.Add(uint64(n) * unitBack)
}

// Done implements admission.LeaseSource.
func (e *edgePlane) Done(run *admission.LeaseRun) {
	if run.Local > 0 {
		e.obs.ClusterAdmitLocal(run.Local)
	}
	if run.Dry > 0 {
		e.obs.ClusterLeaseReject(causeDry, run.Dry)
	}
}

// tryLocal is the zero-round-trip admit: one CAS against the cell,
// valid only while the lease TTL holds.
func (e *edgePlane) tryLocal(c *cell, now int64) bool {
	if now >= c.validUntil.Load() {
		return false
	}
	for {
		v := c.v.Load()
		if v&budgetMask == 0 {
			return false
		}
		if c.v.CompareAndSwap(v, v+activeUnit-1) {
			if left := uint32(v) - 1; left < c.low.Load() {
				c.noteLow(left)
			}
			return true
		}
	}
}

// syncAdmit is the slow path: a grant round trip inline with the
// admit. Serialized under leaseMu so concurrent misses on the same
// cell coalesce into one grant, and the sync admits are counted there.
// Every refusal is a capacity reject, whatever the grant call's fate.
func (e *edgePlane) syncAdmit(ci int, ri int32, c *cell, now int64) bool {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	if e.tryLocal(c, now) || e.syncGrant(ci, ri, c) {
		e.obs.ClusterAdmitSync(1)
		return true
	}
	return false
}

// syncGrant asks the authority for the cell's budget and spends a unit
// of what it gets. Caller holds leaseMu.
func (e *edgePlane) syncGrant(ci int, ri int32, c *cell) bool {
	if time.Now().UnixNano() < c.dryUntil.Load() {
		// The call we queued behind already learned the cell is dry.
		return e.leaseReject(c, causeDry)
	}
	if time.Now().UnixNano() < e.downUntil.Load() {
		// The authority is unreachable: fail safe locally rather than
		// pay (and make everyone behind us pay) an RPC timeout each.
		return e.leaseReject(c, causeDown)
	}
	// A cold cell asks for a block; a warm one knows what it uses.
	e.add(e.itemFor(ci, ri, c, e.askFor(c, uint64(e.cfg.LeaseBlock))), c) // one item: no call yet
	if e.flush() != nil {
		return e.leaseReject(c, causeDown)
	}
	if e.tryLocal(c, time.Now().UnixNano()) {
		return true
	}
	// The authority had nothing to grant. Before that stands, whatever
	// this edge itself has parked, untouched, on the route's servers goes
	// back and the cell asks again.
	if e.reclaimLocked(ci, ri, c) != nil {
		return e.leaseReject(c, causeDown)
	}
	if e.tryLocal(c, time.Now().UnixNano()) {
		return true
	}
	// Still nothing: go dry for one renewal period so saturated cells
	// reject at local speed, not one RPC per attempt.
	c.dryUntil.Store(time.Now().Add(e.cfg.LeaseTTL / 3).UnixNano())
	return e.leaseReject(c, causeDry)
}

// askFor sizes a sync-path ask: the cell's working set, at most a
// block, and cold for a cell no admit has touched this window, which
// has none to go by. Caller holds leaseMu.
func (e *edgePlane) askFor(c *cell, cold uint64) uint64 {
	if k := c.keep(); k > 0 {
		return min(k, uint64(e.cfg.LeaseBlock))
	}
	return cold
}

// leaseReject records one admit refused on the cell's lease state; it
// returns false, the take's answer.
func (e *edgePlane) leaseReject(c *cell, cause string) bool {
	c.low.Store(0)
	e.obs.ClusterLeaseReject(cause, 1)
	return false
}

// reclaimLocked is the edge's "drain siblings before any reject
// stands": every cell of the class that shares a server with route ri
// gives up the part of its budget no admit has reached this window,
// and those smaller sums travel in the same lease call as the cell's
// renewed ask, its item last — the authority walks a call's items in
// order, so the capacity is back on the ledger when the ask is tried.
// Siblings keep what they are using, and the ask is the cell's working
// set, not a block: taking more, from them or for it, only moves the
// shortage to the next cell to run dry and every admit onto this path.
// Caller holds leaseMu.
func (e *edgePlane) reclaimLocked(ci int, ri int32, c *cell) error {
	reclaimed := false
	e.stamp++
	e.seen[ri] = e.stamp
	for _, s := range e.ctrl.RouteServers(ci, ri) {
		for _, sr := range e.through[ci][s] {
			if e.seen[sr] == e.stamp {
				continue
			}
			e.seen[sr] = e.stamp
			sc := &e.cells[ci][sr]
			if sc.takeUntouched() == 0 {
				continue
			}
			reclaimed = true
			if err := e.add(e.itemFor(ci, sr, sc, 0), sc); err != nil {
				return err
			}
		}
	}
	if !reclaimed {
		return nil // nothing parked here: the reject is the authority's
	}
	e.obs.ClusterReclaim()
	if err := e.add(e.itemFor(ci, ri, c, e.askFor(c, 1)), c); err != nil {
		return err
	}
	return e.flush()
}

// add gathers one cell into the next lease call, making the call once
// it holds maxLeaseItems. Caller holds leaseMu.
func (e *edgePlane) add(it leaseItem, c *cell) error {
	e.items, e.itemCells = append(e.items, it), append(e.itemCells, c)
	if len(e.items) == maxLeaseItems {
		return e.flush()
	}
	return nil
}

// flush makes the lease call gathered so far, if any. Caller holds
// leaseMu.
func (e *edgePlane) flush() error {
	if len(e.items) == 0 {
		return nil
	}
	err := e.renewLocked(e.items, e.itemCells)
	e.items, e.itemCells = e.items[:0], e.itemCells[:0]
	return err
}

// itemFor snapshots a cell into a lease item. The sum it reads is
// exact: only leaseMu holders change it, and we hold leaseMu.
func (e *edgePlane) itemFor(ci int, ri int32, c *cell, want uint64) leaseItem {
	v := c.v.Load()
	return leaseItem{ci: int32(ci), ri: ri, act: v >> 32, bud: v & budgetMask, want: want}
}

// renewLocked performs one grant call for items and applies the
// result. cells is aligned with items. Caller holds leaseMu.
func (e *edgePlane) renewLocked(items []leaseItem, cells []*cell) error {
	start := time.Now()
	grants, ttl, err := e.grant(items, e.grants)
	e.grants = grants
	if err != nil {
		e.downUntil.Store(time.Now().Add(e.cfg.LeaseTTL / 3).UnixNano())
		return err
	}
	e.downUntil.Store(0)
	e.obs.ClusterGrant(time.Since(start))
	deadline := time.Now().Add(ttl).UnixNano()
	for i, g := range grants {
		c := cells[i]
		if g == leaseRejected {
			// The authority could not account this cell (mid-settling
			// reattach contention). Leave the TTL unrefreshed: the budget
			// stays spendable until the old deadline and then fails safe.
			continue
		}
		if g > 0 {
			// Budget rides the low bits. The window's marks rise with it:
			// a grant is not something admits left untouched by choice,
			// and a cell that looked spent must not look spent on what it
			// was just given.
			c.v.Add(g)
			c.start += g
			c.shiftLow(int64(g))
		}
		c.lastAcked = items[i].act + items[i].bud + g
		c.validUntil.Store(deadline)
	}
	return nil
}

// maybeRenew runs a renewal pass when a third of the lease TTL has
// passed since the last one; the node's control loop calls it every
// heartbeat tick. TryLock, not Lock: the control loop also drives the
// failure-detector probes, so it must never queue behind a sync-admit
// convoy — a busy lease plane just renews on a later tick.
func (e *edgePlane) maybeRenew(now time.Time) {
	if !e.leaseMu.TryLock() {
		return
	}
	defer e.leaseMu.Unlock()
	if now.Sub(e.lastRenew) < e.cfg.LeaseTTL/3 {
		return
	}
	e.renewAllLocked(now)
}

// renewNow forces a renewal pass (promotion self-attach, tests).
func (e *edgePlane) renewNow(now time.Time) {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	e.renewAllLocked(now)
}

// markReattach makes the next renewal report every cell — on first
// contact with a (new) authority the edge declares its full holdings
// so stale backing from a previous incarnation is released.
func (e *edgePlane) markReattach() {
	e.leaseMu.Lock()
	e.fullReport = true
	e.leaseMu.Unlock()
	// A fresh authority is reachable; any fail-fast window belonged to
	// the old, dead one.
	e.downUntil.Store(0)
}

// renewAllLocked closes every cell's renewal window: budget beyond the
// cell's working set rides back to the authority in the report's
// (smaller) sum, so capacity no route is using pools there instead of
// idling here; a cell short of its working set asks for the shortfall,
// at most a block at a time; and the window's marks start over.
func (e *edgePlane) renewAllLocked(now time.Time) {
	e.lastRenew = now
	full := e.fullReport
	for ci := range e.cells {
		for ri := range e.cells[ci] {
			c := &e.cells[ci][ri]
			keep, dip := c.keep(), c.dip()
			for {
				v := c.v.Load()
				bud := v & budgetMask
				if bud <= keep || c.v.CompareAndSwap(v, v-(bud-keep)) {
					break
				}
			}
			c.low.Store(lowUntouched)
			v := c.v.Load()
			act, bud := v>>32, v&budgetMask
			c.start, c.prevDip = bud, dip
			var want uint64
			if bud < keep {
				want = min(keep-bud, uint64(e.cfg.LeaseBlock))
			}
			if !full && act+bud == 0 && c.lastAcked == 0 && want == 0 {
				continue
			}
			if e.add(leaseItem{ci: int32(ci), ri: int32(ri), act: act, bud: bud, want: want}, c) != nil {
				return // authority unreachable; TTLs will fail safe
			}
		}
	}
	if e.flush() == nil {
		e.fullReport = false
	}
}

// detach zeroes every cell and returns the relinquished amounts for a
// graceful revoke call. Active flows are dropped — a detaching edge is
// shutting down.
func (e *edgePlane) detach() []revokeItem {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	var items []revokeItem
	for ci := range e.cells {
		for ri := range e.cells[ci] {
			c := &e.cells[ci][ri]
			v := c.v.Swap(0)
			c.validUntil.Store(0)
			c.lastAcked = 0
			if sum := (v >> 32) + (v & budgetMask); sum > 0 {
				items = append(items, revokeItem{ci: int32(ci), ri: int32(ri), amount: sum})
			}
		}
	}
	return items
}

// cellSum returns active+budget of one cell (tests, safety checks).
func (e *edgePlane) cellSum(ci int, ri int32) uint64 {
	v := e.cells[ci][ri].v.Load()
	return (v >> 32) + (v & budgetMask)
}
