package admission

import "math"

// This file is the controller surface the cluster plane stands on: an
// authority node reserves whole blocks of per-(class, route) capacity
// on its ledger and delegates them to edge admitters as leases. A
// block reservation is exactly the local refill's wholesale lease —
// the paper's utilization test applied n flows at a time, all hops or
// none — so capacity an edge holds is always already backed on the
// authority's ledger and the utilization bound holds cluster-wide by
// construction: no interleaving of edge admits can exceed what was
// reserved here first.

// Refill is where a controller's lease cells get their units when a
// take finds its cell dry: empty, or past its deadline. A single node
// runs the local refill, which leases from this controller's ledger; a
// cluster member installs a remote one, which leases from the
// authority's. Either way every admit runs class, route and policy as
// on a single node and takes its unit from the route's cell, and every
// release — Teardown, TeardownBatch, an unwind — puts it back there.
type Refill interface {
	// Take moves one class-ci flow slot of route ri to the flow being
	// admitted, refilling the route's cell on the way. ok reports
	// whether it did; walked, that the verdict came from the exact walk
	// on this controller's ledger rather than from a cell, and
	// bottleneck is the server that refused a walked admit (-1
	// otherwise). A refusal is ErrCapacity.
	Take(ci int, ri int32) (bottleneck int, ok, walked bool)
}

// SetRefill installs r as the source of every cell's units (nil
// restores the local refill) and node as the member whose bits every
// issued ID carries; an ID with another node's bits is unknown to
// Teardown and TeardownBatch. Cells another ledger backs are read as
// holding nothing of this one, take every unit a teardown returns, and
// are the only capacity the controller admits against. Like SetPolicy
// it must be called before the controller serves traffic.
func (c *Controller) SetRefill(r Refill, node uint32) {
	c.ledgerCells = r == nil
	c.cellCap = math.MaxInt64
	if r == nil {
		r, c.cellCap = localRefill{c}, maxLease
	}
	c.refill = r
	c.nodeBits = FlowID(0).WithNode(node)
	c.updateFastOK()
}

// Cell returns class ci's lease cell of route ri.
func (c *Controller) Cell(ci int, ri int32) *Cell { return &c.cells[ci][ri] }

// RoutesThrough returns the routes of class ci that cross server s: the
// cells that compete for one ledger entry. The slice is the
// controller's own — callers must not modify it.
func (c *Controller) RoutesThrough(ci, s int) []int32 { return c.members[ci][s] }

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
