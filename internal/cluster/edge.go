package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/admission"
)

// The edge plane is a node's remote refill (admission.Refill): every
// admit on the node runs its controller's own path — class, route,
// policy, registry, decision record — and takes its unit from the
// route's lease cell in the controller, one CAS; only a take that finds
// its cell dry reaches the plane, which asks the authority for more.
// Admits, claims and teardowns only move units between a cell's budget
// and its flows; the plane alone, one serialized caller under leaseMu,
// changes what a cell holds in all — its sum — by applying grants and
// trimming or reclaiming idle budget. So the sum a renewal reports is
// exact no matter how many admits race it, and the authority's backing
// for this edge is always at least the cell sum: the utilization bound
// cannot be overdrawn from here.
//
// A cell's budget is spendable only until its deadline, the lease TTL
// of its last renewal. When the TTL lapses (the authority is
// unreachable or rejected the cell's renewal), takes fall to the sync
// path, which performs a grant round trip inline; failing that, the
// admit is rejected. That fail-safe is the failover story: edges never
// admit past what a live authority has durably accounted.

const (
	// maxLeaseItems bounds one lease call (well under wire.MaxFrameOps
	// and MaxPayload).
	maxLeaseItems = 2048

	// Lease-reject causes reported to the observer.
	causeDry  = "dry"
	causeDown = "down"
)

// cellState is the plane's renewal state of one lease cell, beside the
// cell itself in the controller. Guarded by leaseMu, except dryUntil.
type cellState struct {
	// sum is the cell's budget plus its flows' units, so its active
	// flows are sum − budget. Only leaseMu holders change it.
	sum uint64

	// start is the budget the renewal window opened with plus every
	// grant since; start − low is how deep the window's takes dipped
	// into it, and prevDip is that figure for the window before.
	start   uint64
	prevDip uint64

	// lastAcked is the sum the authority last acknowledged for this
	// cell (its backing). A cell is reported while its sum or lastAcked
	// is nonzero, so the authority always hears about a cell going idle
	// exactly once.
	lastAcked uint64

	// dryUntil backs off the sync path after a grant round trip came
	// back empty-handed: until it passes, takes the cell cannot serve
	// reject locally instead of repeating the round trip per attempt. A
	// teardown returning budget makes the cell admittable again
	// immediately (the cell is tried first), and the renewer keeps
	// asking for budget in the background, so a dry spell ends as soon
	// as capacity exists — the backoff only caps the RPC rate of
	// rejections while the cluster is saturated.
	dryUntil atomic.Int64
}

// dip is how far below its opening level the window's takes have
// taken the cell's budget so far. Caller holds leaseMu.
func (st *cellState) dip(c *admission.Cell) uint64 {
	if low, touched := c.Low(); touched && uint64(low) < st.start {
		return st.start - uint64(low)
	}
	return 0
}

// keep is the standing budget the cell's working set calls for: one
// unit plus twice the deeper of this window's and the last window's
// dip, nothing when no take has touched the cell this window. Churn is
// self-financing — a teardown returns its unit to the same cell — so
// standing budget only rides the gap between admits arriving and
// capacity returning, and the dip is that gap as measured. Whatever a
// cell holds beyond it is a hoard: a granted block never comes back
// while its cell stays warm, and a hub server's ledger fills with
// blocks parked on routes that are not using them. Caller holds
// leaseMu.
func (st *cellState) keep(c *admission.Cell) uint64 {
	if _, touched := c.Low(); !touched {
		return 0
	}
	return 1 + 2*max(st.dip(c), st.prevDip)
}

// grantFunc performs one lease call: the grants, aligned with items
// (leaseRejected marks items the authority refused to account), go to
// grants[:0]; ttl is the renewal deadline for the non-rejected items.
// Called under leaseMu.
type grantFunc func(items []leaseItem, grants []uint64) (_ []uint64, ttl time.Duration, err error)

// edgePlane is a node's remote refill: the renewal state of its
// controller's lease cells.
type edgePlane struct {
	ctrl  *admission.Controller
	cfg   Config
	obs   Observer
	state [][]cellState // [class][route], parallel to the controller's cells

	// leaseMu serializes every sum-changing operation: renewals, sync
	// grants, trims, reclaims and detach. Admits and teardowns never
	// take it.
	leaseMu    sync.Mutex
	grant      grantFunc
	lastRenew  time.Time
	fullReport bool // next renewal reports every cell (reattach)
	detached   bool // the node has stopped: no lease call is made again
	// items gathers the next lease call, and grants takes its answer:
	// scratch every renewal and reclaim reuses. add and flush keep
	// items empty between calls.
	items  []leaseItem
	grants []uint64
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
	e.state = make([][]cellState, ctrl.ClassCount())
	for ci := range e.state {
		e.state[ci] = make([]cellState, ctrl.RouteCount(ci))
		if n := len(e.state[ci]); n > len(e.seen) {
			e.seen = make([]uint32, n)
		}
	}
	e.fullReport = true // first renewal after start is a reattach
	ctrl.SetRefill(e, cfg.NodeID)
	return e
}

// Take implements admission.Refill for a cell the controller found
// empty or past its deadline: a grant round trip, unless a recent one
// found the cell dry.
func (e *edgePlane) Take(ci int, ri int32) (int, bool, bool) {
	if time.Now().UnixNano() < e.state[ci][ri].dryUntil.Load() {
		// A recent grant round trip found no headroom; reject locally
		// until the backoff passes instead of hammering the authority.
		return -1, e.leaseReject(ci, ri, causeDry), false
	}
	return -1, e.syncAdmit(ci, ri), false
}

// syncAdmit is the slow path: a grant round trip inline with the
// admit. Serialized under leaseMu so concurrent misses on the same
// cell coalesce into one grant, and the sync admits are counted there.
// Every refusal is a capacity reject, whatever the grant call's fate.
func (e *edgePlane) syncAdmit(ci int, ri int32) bool {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	if e.ctrl.Cell(ci, ri).Take() || e.syncGrant(ci, ri) {
		e.obs.ClusterAdmitSync(1)
		return true
	}
	return false
}

// syncGrant asks the authority for the cell's budget and spends a unit
// of what it gets. Caller holds leaseMu.
func (e *edgePlane) syncGrant(ci int, ri int32) bool {
	st, c := &e.state[ci][ri], e.ctrl.Cell(ci, ri)
	switch now := time.Now().UnixNano(); {
	case e.detached:
		// The node has stopped and handed its leases back.
		return e.leaseReject(ci, ri, causeDown)
	case now < st.dryUntil.Load():
		// The call we queued behind already learned the cell is dry.
		return e.leaseReject(ci, ri, causeDry)
	case now < e.downUntil.Load():
		// The authority is unreachable: fail safe locally rather than
		// pay (and make everyone behind us pay) an RPC timeout each.
		return e.leaseReject(ci, ri, causeDown)
	}
	// A cold cell asks for a block; a warm one knows what it uses.
	e.add(e.itemFor(ci, ri, e.askFor(st, c, uint64(e.cfg.LeaseBlock)))) // one item: no call yet
	if e.flush() != nil {
		return e.leaseReject(ci, ri, causeDown)
	}
	if c.Take() {
		return true
	}
	// The authority had nothing to grant. Before that stands, whatever
	// this edge itself has parked, untouched, on the route's servers goes
	// back and the cell asks again.
	if e.reclaimLocked(ci, ri) != nil {
		return e.leaseReject(ci, ri, causeDown)
	}
	if c.Take() {
		return true
	}
	// Still nothing: go dry for one renewal period so saturated cells
	// reject at local speed, not one RPC per attempt.
	st.dryUntil.Store(time.Now().Add(e.cfg.LeaseTTL / 3).UnixNano())
	return e.leaseReject(ci, ri, causeDry)
}

// askFor sizes a sync-path ask: the cell's working set, at most a
// block, and cold for a cell no take has touched this window, which
// has none to go by. Caller holds leaseMu.
func (e *edgePlane) askFor(st *cellState, c *admission.Cell, cold uint64) uint64 {
	if k := st.keep(c); k > 0 {
		return min(k, uint64(e.cfg.LeaseBlock))
	}
	return cold
}

// leaseReject records one take refused on the cell's lease state: the
// cell still counts as in use, so the renewer asks for budget the moment
// capacity frees up. It returns false, the take's answer.
func (e *edgePlane) leaseReject(ci int, ri int32, cause string) bool {
	e.ctrl.Cell(ci, ri).MarkDry()
	e.obs.ClusterLeaseReject(cause, 1)
	return false
}

// reclaimLocked is the edge's "drain siblings before any reject
// stands": every cell of the class that shares a server with route ri
// gives up the part of its budget no take has reached this window,
// and those smaller sums travel in the same lease call as the cell's
// renewed ask, its item last — the authority walks a call's items in
// order, so the capacity is back on the ledger when the ask is tried.
// Siblings keep what they are using, and the ask is the cell's working
// set, not a block: taking more, from them or for it, only moves the
// shortage to the next cell to run dry and every admit onto this path.
// Caller holds leaseMu.
func (e *edgePlane) reclaimLocked(ci int, ri int32) error {
	reclaimed := false
	e.stamp++
	e.seen[ri] = e.stamp
	for _, s := range e.ctrl.RouteServers(ci, ri) {
		for _, sr := range e.ctrl.RoutesThrough(ci, s) {
			if e.seen[sr] == e.stamp {
				continue
			}
			e.seen[sr] = e.stamp
			t := uint64(e.ctrl.Cell(ci, sr).TakeUntouched())
			if t == 0 {
				continue
			}
			sst := &e.state[ci][sr]
			sst.sum -= t
			sst.start -= min(t, sst.start)
			reclaimed = true
			if err := e.add(e.itemFor(ci, sr, 0)); err != nil {
				return err
			}
		}
	}
	if !reclaimed {
		return nil // nothing parked here: the reject is the authority's
	}
	e.obs.ClusterReclaim()
	if err := e.add(e.itemFor(ci, ri, e.askFor(&e.state[ci][ri], e.ctrl.Cell(ci, ri), 1))); err != nil {
		return err
	}
	return e.flush()
}

// add gathers one cell into the next lease call, making the call once
// it holds maxLeaseItems. Caller holds leaseMu.
func (e *edgePlane) add(it leaseItem) error {
	e.items = append(e.items, it)
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
	err := e.renewLocked(e.items)
	e.items = e.items[:0]
	return err
}

// itemFor snapshots a cell into a lease item. The split it reads is
// exact: only leaseMu holders change the sum, and we hold leaseMu.
func (e *edgePlane) itemFor(ci int, ri int32, want uint64) leaseItem {
	bud := uint64(e.ctrl.Cell(ci, ri).Budget())
	return leaseItem{ci: int32(ci), ri: ri, act: e.state[ci][ri].sum - bud, bud: bud, want: want}
}

// renewLocked performs one grant call for items and applies the
// result. Caller holds leaseMu.
func (e *edgePlane) renewLocked(items []leaseItem) error {
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
		if g == leaseRejected {
			// The authority could not account this cell (mid-settling
			// reattach contention). Leave the TTL unrefreshed: the budget
			// stays spendable until the old deadline and then fails safe.
			continue
		}
		it := &items[i]
		c, st := e.ctrl.Cell(int(it.ci), it.ri), &e.state[it.ci][it.ri]
		c.Renew(int64(g), deadline)
		st.sum += g
		st.start += g
		st.lastAcked = st.sum
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
	for ci := range e.state {
		for ri := range e.state[ci] {
			c, st := e.ctrl.Cell(ci, int32(ri)), &e.state[ci][ri]
			keep, dip := st.keep(c), st.dip(c)
			st.sum -= uint64(c.Trim(int64(keep)))
			c.ResetLow()
			bud := uint64(c.Budget())
			st.start, st.prevDip = bud, dip
			var want uint64
			if bud < keep {
				want = min(keep-bud, uint64(e.cfg.LeaseBlock))
			}
			if !full && st.sum == 0 && st.lastAcked == 0 && want == 0 {
				continue
			}
			if e.add(leaseItem{ci: int32(ci), ri: int32(ri), act: st.sum - bud, bud: bud, want: want}) != nil {
				return // authority unreachable; TTLs will fail safe
			}
		}
	}
	if e.flush() == nil {
		e.fullReport = false
	}
}

// detach empties every cell, closes it for good, and returns the
// relinquished amounts for a graceful revoke call; from then on no
// lease call is made. Active flows are dropped — a detaching edge is
// shutting down — and a teardown that comes later puts its unit into a
// closed cell, where nothing can take or report it.
func (e *edgePlane) detach() []revokeItem {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	e.detached = true
	var items []revokeItem
	for ci := range e.state {
		for ri := range e.state[ci] {
			c, st := e.ctrl.Cell(ci, int32(ri)), &e.state[ci][ri]
			c.Close()
			if st.sum > 0 {
				items = append(items, revokeItem{ci: int32(ci), ri: int32(ri), amount: st.sum})
			}
			st.sum, st.lastAcked = 0, 0
		}
	}
	return items
}

// cellSum returns one cell's sum, budget and flows (tests, safety
// checks).
func (e *edgePlane) cellSum(ci int, ri int32) uint64 {
	e.leaseMu.Lock()
	defer e.leaseMu.Unlock()
	return e.state[ci][ri].sum
}
