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

	// run is the batch's decisions, filled once the batch is decided and
	// handed to the sink in one call (telemetry attached only).
	run []telemetry.Decision

	// Per-batch headroom claims: the first item on a (class, route)
	// claims a chunk of the route's budget in one CAS and later items
	// on the same route consume it locally, so a homogeneous batch does
	// one atomic sub per route per batch. claimN is slots still unspent.
	claimCi []int32
	claimRi []int32
	claimN  []int32

	// lease is the run's state at the lease source, if one is installed.
	lease LeaseRun
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

// batchReserve decides one batch item against the headroom plane,
// preferring the batch's local claim for the route. remaining is an
// upper bound on how many items of the batch could still want this
// route (claim chunks never exceed it, so little is left to hand back).
func (c *Controller) batchReserve(sc *batchScratch, ci int, ri int32, remaining int) (int, bool) {
	if !c.fastOK {
		if c.lease != nil {
			return -1, c.lease.Take(&sc.lease, ci, ri)
		}
		s, ok := c.reserve(ci, ri)
		if ok {
			c.fbAdmits.Add(1)
		} else {
			c.fbRejects.Add(1)
		}
		return s, ok
	}
	for k := range sc.claimCi {
		if int(sc.claimCi[k]) != ci || sc.claimRi[k] != ri {
			continue
		}
		if sc.claimN[k] > 0 {
			sc.claimN[k]--
			return -1, true
		}
		if take := c.claimChunk(ci, ri, int64(remaining)); take > 0 {
			sc.claimN[k] = int32(take) - 1
			return -1, true
		}
		return c.slowAdmitReserve(ci, ri, &c.plane[ci].entries[ri])
	}
	if len(sc.claimCi) < maxClaimRoutes {
		take := c.claimChunk(ci, ri, int64(remaining))
		sc.claimCi = append(sc.claimCi, int32(ci))
		sc.claimRi = append(sc.claimRi, ri)
		if take > 0 {
			sc.claimN = append(sc.claimN, int32(take)-1)
			return -1, true
		}
		sc.claimN = append(sc.claimN, 0)
		return c.slowAdmitReserve(ci, ri, &c.plane[ci].entries[ri])
	}
	return c.admitReserve(ci, ri)
}

// holdsClaims reports whether the batch holds any unspent claim.
func (sc *batchScratch) holdsClaims() bool {
	for _, n := range sc.claimN {
		if n > 0 {
			return true
		}
	}
	return false
}

// returnClaims credits unspent claim slots back to their routes.
func (c *Controller) returnClaims(sc *batchScratch) {
	for k := range sc.claimCi {
		if n := sc.claimN[k]; n > 0 {
			c.creditBudget(int(sc.claimCi[k]), sc.claimRi[k], int64(n))
		}
	}
	sc.claimCi = sc.claimCi[:0]
	sc.claimRi = sc.claimRi[:0]
	sc.claimN = sc.claimN[:0]
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
	sc.claimCi = sc.claimCi[:0]
	sc.claimRi = sc.claimRi[:0]
	sc.claimN = sc.claimN[:0]

	var rejected, policyRejected, noRoute uint64
	for i, it := range items {
		sc.bns = append(sc.bns, -1)
		ci, ok := c.classIndex(it.Class)
		if !ok {
			sc.cis = append(sc.cis, -1)
			results = append(results, BatchResult{Err: ErrUnknownClass})
			continue
		}
		sc.cis = append(sc.cis, int32(ci))
		ri := c.routeIndex(ci, it.Src, it.Dst)
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
		bn, ok := c.batchReserve(sc, ci, ri, len(items)-i)
		if !ok && sc.holdsClaims() {
			// A claimed slot is backed capacity the plane no longer sees,
			// so the reclaiming walk of a sibling route cannot drain it.
			// Before the reject stands, the batch's unspent claims go back
			// to their routes' budgets and the walk runs once more: a batch
			// is refused only what the exact test would refuse it.
			c.returnClaims(sc)
			bn, ok = c.admitReserveSlow(ci, ri)
		}
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
	if c.lease != nil {
		c.lease.Done(&sc.lease)
		sc.lease = LeaseRun{}
	}

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
			c.release(int(sc.classes[k]), sc.routes[k])
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
				c.release(int(sc.classes[k]), sc.routes[k])
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
	sc.claimCi = sc.claimCi[:0]
	sc.claimRi = sc.claimRi[:0]
	sc.claimN = sc.claimN[:0]
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
		// Credits are aggregated per route in the claim table and
		// returned in bulk below — one budget CAS per distinct route
		// instead of one per flow.
		credited := false
		for k := range sc.claimCi {
			if int(sc.claimCi[k]) == ci && sc.claimRi[k] == route {
				sc.claimN[k]++
				credited = true
				break
			}
		}
		if !credited {
			if len(sc.claimCi) < maxClaimRoutes {
				sc.claimCi = append(sc.claimCi, int32(ci))
				sc.claimRi = append(sc.claimRi, route)
				sc.claimN = append(sc.claimN, 1)
			} else {
				c.releaseFlow(ci, route)
			}
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
	for k := range sc.claimCi {
		ci, ri, n := int(sc.claimCi[k]), sc.claimRi[k], int64(sc.claimN[k])
		switch {
		case c.fastOK:
			c.creditBudget(ci, ri, n)
		case c.lease != nil:
			c.lease.Put(ci, ri, n)
		default:
			c.releaseN(ci, ri, n)
		}
	}
	sc.claimCi = sc.claimCi[:0]
	sc.claimRi = sc.claimRi[:0]
	sc.claimN = sc.claimN[:0]
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
