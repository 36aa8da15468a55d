package admission

import (
	"sync"
	"time"

	"ubac/internal/policy"
	"ubac/internal/telemetry"
)

// BatchItem is one admission request in an AdmitBatch call. Tenant
// ("" = untenanted) feeds the installed admission policy and labels
// the audit event, exactly as in AdmitWithTenant.
type BatchItem struct {
	Class    string
	Tenant   string
	Src, Dst int
}

// BatchResult is the outcome of one BatchItem: ID is valid iff Err is
// nil. Err values are the package sentinels, same as Admit's.
type BatchResult struct {
	ID  FlowID
	Err error
}

// batchScratch holds the per-call working slices of AdmitBatch so a
// steady batch workload allocates nothing (the slices keep their grown
// capacity across calls via the pool).
type batchScratch struct {
	classes []int32
	routes  []int32
	pos     []int32 // index into the results slice for each success
	bns     []int32 // per-item bottleneck server, -1 unless capacity-rejected
	ids     []FlowID
	u64     []uint64 // journal view of ids (wal speaks uint64, not FlowID)
	cis     []int32  // per-item class index, -1 when the class is unknown
	ris     []int32  // per-item route index, -1 when unroutable
	slot    []int8   // per-item claim table entry, -1 for none

	// run is the batch's decisions, filled once the batch is decided and
	// handed to the sink in one call (telemetry attached only).
	run []telemetry.Decision

	// Per-batch claims: the first item on a (class, route) claims from
	// the route's cell, in one CAS, what the batch's items on the route
	// will spend, and later items consume it locally, so a homogeneous
	// batch does one atomic sub per route per batch. TeardownBatch
	// counts its credits in the same table. keys, parallel to claims,
	// is what demand searches: class<<32 | route.
	claims []claim
	keys   []uint64
}

// claim is one route's entry in a batch's claim table.
type claim struct {
	ci, ri int32
	// want is how many of the batch's items on the route are still to be
	// decided (TeardownBatch: the slots to credit back).
	want int64
	// n is the slots claimed and still unspent.
	n int64
	// left is the budget the open chunk left in the cell, -1 when no
	// chunk is open. Closing a chunk folds left+n into the cell's
	// low-water mark: the lowest budget per-item takes would have left,
	// so a slot handed back unspent does not count as reached.
	left int64
}

// demand counts one more item on route ri of class ci into the claim
// table and returns its entry, -1 when the table is full.
func (sc *batchScratch) demand(ci int, ri int32) int8 {
	key := uint64(ci)<<32 | uint64(ri)
	for k, kk := range sc.keys {
		if kk == key {
			sc.claims[k].want++
			return int8(k)
		}
	}
	if len(sc.keys) == maxClaimRoutes {
		return -1
	}
	sc.keys = append(sc.keys, key)
	sc.claims = append(sc.claims, claim{ci: int32(ci), ri: ri, want: 1, left: -1})
	return int8(len(sc.keys) - 1)
}

// runFor returns n decisions of scratch. They hold an earlier batch's
// values — filling one in place is half the price of appending a
// composite literal — so the caller assigns every field.
func (sc *batchScratch) runFor(n int) []telemetry.Decision {
	if cap(sc.run) < n {
		sc.run = make([]telemetry.Decision, n)
	}
	return sc.run[:n]
}

// maxClaimRoutes bounds the linear claim table; batches touching more
// distinct routes fall back to per-item budget CAS for the excess.
const maxClaimRoutes = 16

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batchReserve decides one batch item, from the batch's claim on the
// route when it has an entry k in the claim table.
func (c *Controller) batchReserve(sc *batchScratch, ci int, ri int32, k int8) (int, bool) {
	if !c.fastOK {
		return c.admitReserveSlow(ci, ri) // the exact walk
	}
	if k >= 0 {
		return c.spendClaim(sc, &sc.claims[k])
	}
	if c.cells[ci][ri].Take() {
		return -1, true
	}
	return c.batchRefill(sc, ci, ri)
}

// spendClaim admits one item from the batch's claim on its route,
// claiming the route's remaining demand from the cell in one CAS once
// the last chunk is spent, and asking the refill when the cell has
// none.
func (c *Controller) spendClaim(sc *batchScratch, cl *claim) (int, bool) {
	want := cl.want
	cl.want--
	if cl.n > 0 {
		cl.n--
		return -1, true
	}
	e := &c.cells[cl.ci][cl.ri]
	if cl.left >= 0 {
		e.spent(cl.left)
		cl.left = -1
	}
	if took, left := e.claim(want); took > 0 {
		cl.n, cl.left = took-1, left
		return -1, true
	}
	return c.batchRefill(sc, int(cl.ci), cl.ri)
}

// batchRefill asks the refill for a unit of a dry cell. A claimed slot
// is backed capacity its cell no longer holds, so a refill that drains
// sibling cells could not reach it: the batch's unspent claims go back
// to their cells first, and a batch is refused only what per-item
// takes would be refused.
func (c *Controller) batchRefill(sc *batchScratch, ci int, ri int32) (int, bool) {
	if sc.holdsClaims() {
		c.returnClaims(sc)
	}
	return c.refillTake(ci, ri)
}

// holdsClaims reports whether the batch holds any unspent claim.
func (sc *batchScratch) holdsClaims() bool {
	for _, cl := range sc.claims {
		if cl.n > 0 {
			return true
		}
	}
	return false
}

// returnClaims closes every open chunk and credits its unspent slots
// back to the route's cell; later items on the route claim afresh.
func (c *Controller) returnClaims(sc *batchScratch) {
	for k := range sc.claims {
		cl := &sc.claims[k]
		if cl.left >= 0 {
			c.cells[cl.ci][cl.ri].spent(cl.left + cl.n)
		}
		if cl.n > 0 {
			c.put(int(cl.ci), cl.ri, cl.n)
		}
		cl.n, cl.left = 0, -1
	}
}

// AdmitBatch runs the utilization test for every item and registers
// all admitted flows with one registry claim. Each
// reservation is still an individual atomic utilization test — a batch
// buys no admission leniency, it only amortizes flow registration,
// counter updates and telemetry timestamps across items. results is
// reused when its capacity allows and returned with one BatchResult
// per item, in order. When telemetry is attached the batch is reported
// to the sink as one run, and per-decision latency is the batch's wall
// time (decisions within a batch are not timed individually).
func (c *Controller) AdmitBatch(items []BatchItem, results []BatchResult) []BatchResult {
	var start time.Time
	if c.telemetered {
		start = c.now()
	}
	results = results[:0]
	sc := scratchPool.Get().(*batchScratch)
	sc.classes = sc.classes[:0]
	sc.routes = sc.routes[:0]
	sc.pos = sc.pos[:0]
	sc.bns = sc.bns[:0]
	sc.cis = sc.cis[:0]
	sc.ris = sc.ris[:0]
	sc.slot = sc.slot[:0]
	sc.claims, sc.keys = sc.claims[:0], sc.keys[:0]

	// Resolve every item first, counting each route's demand into the
	// claim table: a claim takes what the batch will spend, and leaves
	// the rest of the cell to concurrent batches.
	for _, it := range items {
		ci, ok := c.classIndex(it.Class)
		ri, k := int32(-1), int8(-1)
		if !ok {
			ci = -1
		} else if ri = c.routeIndex(ci, it.Src, it.Dst); ri >= 0 && c.fastOK {
			k = sc.demand(ci, ri)
		}
		sc.cis = append(sc.cis, int32(ci))
		sc.ris = append(sc.ris, ri)
		sc.slot = append(sc.slot, k)
	}

	var rejected, policyRejected, noRoute uint64
	for i := range items {
		it := &items[i]
		sc.bns = append(sc.bns, -1)
		ci, ri := int(sc.cis[i]), sc.ris[i]
		if ci < 0 {
			results = append(results, BatchResult{Err: ErrUnknownClass})
			continue
		}
		if ri < 0 {
			noRoute++
			results = append(results, BatchResult{Err: ErrNoRoute})
			continue
		}
		if p := c.policy; p != nil {
			// Per-item policy verdicts: a batch buys no policy leniency
			// either — each item is decided exactly as Admit would.
			dctx := policy.DecisionContext{
				Class: it.Class, Tenant: it.Tenant, Src: it.Src, Dst: it.Dst,
				Rate: c.classes[ci].Class.Bucket.Rate,
			}
			if c.policyFill {
				dctx.FillAfter = c.fillAfter(ci, ri)
			}
			if v := p.Decide(dctx); v != policy.Allow {
				rejected++
				policyRejected++
				_, err := policyOutcome(v)
				results = append(results, BatchResult{Err: err})
				continue
			}
		}
		bn, ok := c.batchReserve(sc, ci, ri, sc.slot[i])
		if !ok {
			rejected++
			sc.bns[i] = int32(bn)
			results = append(results, BatchResult{Err: ErrCapacity})
			continue
		}
		results = append(results, BatchResult{})
		sc.classes = append(sc.classes, int32(ci))
		sc.routes = append(sc.routes, ri)
		sc.pos = append(sc.pos, int32(i))
	}
	c.returnClaims(sc)

	admitted := len(sc.pos)
	if cap(sc.ids) < admitted {
		sc.ids = make([]FlowID, admitted)
	}
	sc.ids = sc.ids[:admitted]
	baseSeq, ok := c.reg.putBatch(sc.classes, sc.routes, sc.ids)
	if !ok {
		// Registry shard exhausted: nothing was registered, so return
		// every reservation this batch took and fail its successes. The
		// batch's cursor block never became admits.
		c.reg.gaps.Add(uint64(admitted))
		for k := range sc.pos {
			c.release(int(sc.classes[k]), sc.routes[k], 1)
			results[sc.pos[k]].Err = ErrTooManyFlows
		}
		rejected += uint64(admitted)
		admitted = 0
	}
	if c.journal != nil && admitted > 0 {
		if cap(sc.u64) < admitted {
			sc.u64 = make([]uint64, admitted)
		}
		sc.u64 = sc.u64[:admitted]
		for k := 0; k < admitted; k++ {
			sc.u64[k] = uint64(sc.ids[k])
		}
		if err := c.journal.AppendAdmitBatch(sc.u64, baseSeq, sc.classes, sc.routes); err != nil {
			// Journal closed or failed: unwind the whole batch's
			// registrations and reservations; the successes never happened.
			c.reg.gaps.Add(uint64(admitted))
			for k := 0; k < admitted; k++ {
				c.reg.take(sc.ids[k])
				c.release(int(sc.classes[k]), sc.routes[k], 1)
				results[sc.pos[k]].Err = ErrShuttingDown
			}
			admitted = 0
		}
	}
	for k := 0; k < admitted; k++ {
		results[sc.pos[k]].ID = sc.ids[k] | c.nodeBits
	}

	if admitted > 0 {
		c.noteActive(int64(c.admittedCount() - c.tornDown.Load()))
	}
	if rejected > 0 {
		c.rejected.Add(rejected)
	}
	if policyRejected > 0 {
		c.policyRejected.Add(policyRejected)
	}
	if noRoute > 0 {
		c.noRoute.Add(noRoute)
	}
	if c.telemetered {
		// One clock read and one sink call serve the whole batch: every
		// member shares start, so sharing end keeps their latencies
		// consistent, and the sink publishes a run's counters once.
		end := c.now()
		latency := end.Sub(start)
		run := sc.runFor(len(items))
		n := 0
		for i := range items {
			v, ok := batchVerdict(results[i].Err)
			if !ok {
				continue
			}
			it, d := &items[i], &run[n]
			n++
			d.FlowID = uint64(results[i].ID)
			d.Class, d.Tenant = it.Class, it.Tenant
			d.Src, d.Dst = it.Src, it.Dst
			d.Rate = 0
			if ci := sc.cis[i]; ci >= 0 {
				d.Rate = c.classes[ci].Class.Bucket.Rate
			}
			d.Verdict = v
			d.Bottleneck = int(sc.bns[i])
			d.Latency, d.When = latency, end
		}
		if n > 0 {
			c.sink.DecisionRun(run[:n])
		}
	}
	scratchPool.Put(sc)
	return results
}

// batchVerdict maps a batch item's outcome to the verdict reported for
// it. ErrShuttingDown reports nothing: the journal refused, so nothing
// was admitted or rejected on capacity grounds.
func batchVerdict(err error) (telemetry.Verdict, bool) {
	switch err {
	case nil:
		return telemetry.Admitted, true
	case ErrNoRoute:
		return telemetry.RejectedNoRoute, true
	case ErrUnknownClass:
		return telemetry.RejectedUnknownClass, true
	case ErrPolicyRate:
		return telemetry.RejectedPolicyRate, true
	case ErrPolicyShed:
		return telemetry.RejectedPolicyShed, true
	case ErrPolicyReserve:
		return telemetry.RejectedPolicyReserve, true
	case ErrShuttingDown:
		return 0, false
	default:
		return telemetry.RejectedCapacity, true
	}
}

// TeardownBatch releases a batch of admitted flows. errs is reused
// when its capacity allows and returned with one entry per ID: nil on
// success, ErrUnknownFlow for IDs that are not live. Counter and
// telemetry traffic is amortized over the batch like AdmitBatch.
func (c *Controller) TeardownBatch(ids []FlowID, errs []error) []error {
	var start time.Time
	if c.telemetered {
		start = c.now()
	}
	errs = errs[:0]
	sc := scratchPool.Get().(*batchScratch)
	sc.u64 = sc.u64[:0]
	sc.claims, sc.keys = sc.claims[:0], sc.keys[:0]
	// Torn-down flows are written into the run as they are released and
	// reported after the loop, all sharing one end-of-batch clock read
	// (the AdmitBatch pattern).
	var run []telemetry.Decision
	if c.telemetered {
		run = sc.runFor(len(ids))
	}
	var torn int64
	// Freed slots ride one chain per run of same-shard IDs — a batch
	// admitted together comes back as one — and rejoin their free list
	// with one CAS per run.
	var freed freeChain
	for _, id := range ids {
		rid := id ^ c.nodeBits // as the registry issued it, if this node did
		var class, route int32
		ok := rid.Node() == 0
		if ok {
			class, route, ok = c.reg.takeInto(rid, &freed)
		}
		if !ok {
			errs = append(errs, ErrUnknownFlow)
			continue
		}
		ci := int(class)
		// Credits are counted per route in the claim table and returned
		// in bulk below — one budget CAS per distinct route instead of
		// one per flow.
		if sc.demand(ci, route) < 0 {
			c.release(ci, route, 1)
		}
		torn++
		errs = append(errs, nil)
		if c.journal != nil {
			sc.u64 = append(sc.u64, uint64(rid))
		}
		if c.telemetered {
			cc := &c.classes[ci]
			rt := cc.Routes.Route(int(route))
			d := &run[torn-1]
			d.FlowID = uint64(id)
			d.Class, d.Tenant = cc.Class.Name, ""
			d.Src, d.Dst = rt.Src, rt.Dst
			d.Rate = cc.Class.Bucket.Rate
			d.Verdict = telemetry.TornDown
			d.Bottleneck = -1
		}
	}
	freed.flush()
	if c.telemetered && torn > 0 {
		end := c.now()
		latency := end.Sub(start)
		run = run[:torn]
		for k := range run {
			run[k].Latency, run[k].When = latency, end
		}
		c.sink.DecisionRun(run)
	}
	for _, cl := range sc.claims {
		c.release(int(cl.ci), cl.ri, cl.want)
	}
	sc.claims, sc.keys = sc.claims[:0], sc.keys[:0]
	if torn > 0 {
		c.tornDown.Add(uint64(torn))
	}
	if c.journal != nil && len(sc.u64) > 0 {
		if err := c.journal.AppendTeardownBatch(sc.u64); err != nil {
			// Same contract as Teardown: the releases took effect in
			// memory but are not durable, so flag each one.
			for i := range errs {
				if errs[i] == nil {
					errs[i] = ErrShuttingDown
				}
			}
		}
	}
	scratchPool.Put(sc)
	return errs
}
