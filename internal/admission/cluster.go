package admission

// This file is the controller surface the cluster plane stands on: an
// authority node reserves whole blocks of per-(class, route) capacity
// on its ledger and delegates them to edge admitters as leases. A
// block reservation is exactly the headroom plane's wholesale lease —
// the paper's utilization test applied n flows at a time, all hops or
// none — so capacity an edge holds is always already backed on the
// authority's ledger and the utilization bound holds cluster-wide by
// construction: no interleaving of edge admits can exceed what was
// reserved here first. The flows an edge admits against its leases are
// kept in this controller's flow registry (RegisterLeased and
// ReleaseLeased), so a cluster member has one flow table, and its
// Stats are its edge's.

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

// RouteIndexFor resolves (src, dst) to class ci's route index, -1 if
// the pair is unroutable — the exported form of the lookup Admit uses,
// so an edge plane and the controller agree on what ErrNoRoute means.
func (c *Controller) RouteIndexFor(ci int, src, dst int) int32 {
	if ci < 0 || ci >= len(c.classes) {
		return -1
	}
	return c.routeIndex(ci, src, dst)
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

// RegisterLeased enters flows whose capacity the caller already holds
// by lease — a cluster edge's admits — into the flow registry: one
// claim for the run, as AdmitBatch makes. Nothing is reserved on the
// ledger (the authority accounts the lease wholesale) and nothing is
// journaled. classes, routes and ids are parallel; ids receives the
// flows' IDs with node in their node bits. It returns false, with
// nothing registered, when the registry is out of slots.
func (c *Controller) RegisterLeased(node uint32, classes, routes []int32, ids []FlowID) bool {
	if _, ok := c.reg.putBatch(classes, routes, ids); !ok {
		c.reg.gaps.Add(uint64(len(ids)))
		return false
	}
	if node != 0 {
		for i := range ids {
			ids[i] = ids[i].WithNode(node)
		}
	}
	c.noteActive(int64(c.admittedCount() - c.tornDown.Load()))
	return true
}

// ReleaseLeased resolves and frees a run of flows RegisterLeased
// issued under node, the freed slots going back to their lists one
// chain per shard run as in TeardownBatch. classes[i] and routes[i]
// receive flow i's cell; classes[i] is -1 for an ID that is not live
// or carries another node's bits, which is refused before the registry
// is touched. It returns the number released.
func (c *Controller) ReleaseLeased(node uint32, ids []FlowID, classes, routes []int32) int {
	var freed freeChain
	n := 0
	for i, id := range ids {
		classes[i] = -1
		if id.Node() != node {
			continue
		}
		class, route, ok := c.reg.takeInto(id.WithNode(0), &freed)
		if !ok {
			continue
		}
		classes[i], routes[i] = class, route
		n++
	}
	freed.flush()
	if n > 0 {
		c.tornDown.Add(uint64(n))
	}
	return n
}
