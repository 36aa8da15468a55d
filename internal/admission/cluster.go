package admission

// This file is the controller surface the cluster plane stands on: an
// authority node reserves whole blocks of per-(class, route) capacity
// on its ledger and delegates them to edge admitters as leases. A
// block reservation is exactly the headroom plane's wholesale lease —
// the paper's utilization test applied n flows at a time, all hops or
// none — so capacity an edge holds is always already backed on the
// authority's ledger and the utilization bound holds cluster-wide by
// construction: no interleaving of edge admits can exceed what was
// reserved here first.

// LeaseSource is the capacity a cluster member admits against in place
// of its ledger: flow slots the authority has already reserved on every
// hop. With one installed, every admit runs class, route and policy as
// on a single node and then takes its unit from the source; every
// release — Teardown, TeardownBatch, an unwind — puts it back.
type LeaseSource interface {
	// Take moves one class-ci flow slot of route ri from the budget to
	// a flow, reporting whether it did; a refusal is ErrCapacity.
	Take(run *LeaseRun, ci int, ri int32) bool
	// Put returns n flow slots of route ri to the budget.
	Put(ci int, ri int32, n int64)
	// Done closes an admit run, whose tallies the source reports.
	Done(run *LeaseRun)
}

// LeaseRun is what one admit run (a batch, or one Admit) carries from
// take to take, so a source reads the clock and counts its outcomes
// once per run. Each run starts from the zero value.
type LeaseRun struct {
	Now        int64 // Unix nanoseconds, 0 until a Take reads the clock
	Local, Dry int   // takes served from the budget at hand; refused without asking for more
}

// SetLeaseSource installs src in place of the ledger (nil restores it)
// and node as the member whose bits every issued ID carries; an ID with
// another node's bits is unknown to Teardown and TeardownBatch. Like
// SetPolicy it must be called before the controller serves traffic.
func (c *Controller) SetLeaseSource(src LeaseSource, node uint32) {
	c.lease = src
	c.nodeBits = FlowID(0).WithNode(node)
	c.updateFastOK()
}

// ClassCount returns the number of configured classes; indices below
// it are valid ci arguments everywhere in this file.
func (c *Controller) ClassCount() int { return len(c.classes) }

// RouteCount returns the number of configured routes of class ci.
func (c *Controller) RouteCount(ci int) int {
	if ci < 0 || ci >= len(c.classes) {
		return 0
	}
	return len(c.paths[ci])
}

// ReserveBlock reserves n flow-slots of class-ci capacity on every hop
// of route ri, all-or-nothing. It returns false when any hop lacks the
// headroom — nothing is held on a failed reserve.
func (c *Controller) ReserveBlock(ci int, ri int32, n int64) bool {
	if ci < 0 || ci >= len(c.classes) || ri < 0 || int(ri) >= len(c.paths[ci]) || n <= 0 {
		return false
	}
	return c.tryLease(ci, ri, n)
}

// ReleaseBlock returns n flow-slots of class-ci backing on route ri to
// the ledger. Releasing more than was reserved is a caller bug that
// corrupts accounting, exactly like a double Teardown would.
func (c *Controller) ReleaseBlock(ci int, ri int32, n int64) {
	if ci < 0 || ci >= len(c.classes) || ri < 0 || int(ri) >= len(c.paths[ci]) || n <= 0 {
		return
	}
	c.releaseN(ci, ri, n)
}

// BlockHeadroom returns how many additional class-ci flows route ri
// could hold right now by the exact per-server walk (leases count as
// used). Grant sizing uses it to avoid proposing blocks that cannot
// reserve.
func (c *Controller) BlockHeadroom(ci int, ri int32) int64 {
	if ci < 0 || ci >= len(c.classes) || ri < 0 || int(ri) >= len(c.paths[ci]) {
		return 0
	}
	return c.walkHeadroom(ci, ri)
}

// ServerCount returns the number of servers in the topology.
func (c *Controller) ServerCount() int { return c.nsrv }

// LedgerInUseMicro returns the raw ledger reservation of class ci on
// server s in microbit units — admitted flows plus leased backing —
// and LimitMicro the verified α·C limit it must never exceed. The
// cluster safety property test asserts the pair's invariant directly.
func (c *Controller) LedgerInUseMicro(ci, s int) int64 {
	if ci < 0 || ci >= len(c.classes) || s < 0 || s >= c.nsrv {
		return 0
	}
	return c.led.inUse(ci*c.nsrv + s)
}

// LimitMicro returns the per-(class, server) utilization limit in
// microbit units.
func (c *Controller) LimitMicro(ci, s int) int64 {
	if ci < 0 || ci >= len(c.classes) || s < 0 || s >= c.nsrv {
		return 0
	}
	return c.limits[ci][s]
}

// RouteServers returns the server hops of class ci's route ri; the
// slice is the controller's own — callers must not modify it.
func (c *Controller) RouteServers(ci int, ri int32) []int {
	if ci < 0 || ci >= len(c.classes) || ri < 0 || int(ri) >= len(c.paths[ci]) {
		return nil
	}
	return c.paths[ci][ri]
}
