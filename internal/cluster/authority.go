package cluster

import (
	"fmt"
	"sync"
	"time"

	"ubac/internal/admission"
	"ubac/internal/wal"
)

// The authority owns the cluster's real utilization ledger. Every unit
// of capacity an edge holds — on any node, this one included — was
// first reserved here via ReserveBlock, the controller's
// all-or-nothing per-hop wholesale reservation, and journaled to the
// WAL as an absolute per-(node, class, route) backing record before
// the grant was acknowledged. Releases are journaled asynchronously: a
// lost release replays as a larger backing, which is conservative, and
// because the WAL is strictly ordered any durable prefix of it was a
// consistent past state of this ledger — so a promoted authority can
// always re-reserve what it replays.

const (
	// fetchMax bounds one fetch response's data (below wire.MaxPayload
	// with room for the head).
	fetchMax = 64 << 10
)

type backKey struct {
	node uint32
	ci   int32
	ri   int32
}

type authority struct {
	ctrl *admission.Controller
	log  *wal.Log
	cfg  Config
	logf func(string, ...any)

	mu       sync.Mutex
	items    []leaseItem // serveLease's scratch, like grants
	grants   []uint64
	backing  map[backKey]uint64
	lastSeen map[uint32]time.Time
	attached map[uint32]bool
	settling bool
	settleBy time.Time
}

// newAuthority wraps an already-reserved replayed backing map. When
// any backing was replayed the authority starts settling: it grants
// nothing new until every static member has reattached (reported its
// exact holdings) or outlived the suspicion timeout and had its
// backing reclaimed.
func newAuthority(ctrl *admission.Controller, log *wal.Log, cfg Config, logf func(string, ...any),
	replayed map[backKey]uint64, now time.Time) *authority {
	a := &authority{
		ctrl:     ctrl,
		log:      log,
		cfg:      cfg,
		logf:     logf,
		backing:  replayed,
		lastSeen: make(map[uint32]time.Time),
		attached: make(map[uint32]bool),
		settling: len(replayed) > 0,
		settleBy: now.Add(cfg.SuspicionTimeout),
	}
	if a.backing == nil {
		a.backing = make(map[backKey]uint64)
	}
	return a
}

// noteSeen records contact from a node (heartbeats keep idle edges
// from being reaped).
func (a *authority) noteSeen(node uint32, now time.Time) {
	a.mu.Lock()
	a.lastSeen[node] = now
	a.mu.Unlock()
}

// handleLease is the grant path: adjust this node's backing to the
// reported sums, grant wanted budget while headroom holds, journal
// every change as an absolute record, and fsync before acknowledging
// any grant. The grants, one per item, go to grants[:0].
func (a *authority) handleLease(node uint32, items []leaseItem, grants []uint64, now time.Time) ([]uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.leaseLocked(node, items, grants, now)
}

// serveLease answers a remote edge's lease frame: the request is
// decoded into, and granted from, the authority's own scratch, and the
// response is appended to dst.
func (a *authority) serveLease(count uint16, body, dst []byte, now time.Time) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	node, items, err := decodeLeaseReq(count, body, a.items)
	a.items = items
	if err != nil {
		return nil, err
	}
	grants, err := a.leaseLocked(node, items, a.grants, now)
	a.grants = grants
	if err != nil {
		return nil, err
	}
	return appendLeaseResp(dst, a.cfg.LeaseTTL, items, grants), nil
}

// leaseLocked is handleLease with mu held.
func (a *authority) leaseLocked(node uint32, items []leaseItem, grants []uint64, now time.Time) ([]uint64, error) {
	a.lastSeen[node] = now
	if a.settling && !a.attached[node] {
		a.attached[node] = true
		a.checkSettleLocked(now)
	}
	grants = append(grants[:0], make([]uint64, len(items))...)
	anyGrant := false
	for i, it := range items {
		ci := int(it.ci)
		if ci < 0 || ci >= a.ctrl.ClassCount() || it.ri < 0 || int(it.ri) >= a.ctrl.RouteCount(ci) {
			return grants, fmt.Errorf("cluster: lease item (%d,%d) out of range", it.ci, it.ri)
		}
		key := backKey{node: node, ci: it.ci, ri: it.ri}
		old := a.backing[key]
		reported := it.act + it.bud
		cur := old
		switch {
		case reported < old:
			// The edge shrank (teardown-driven trim, or a reattach after
			// losing flows): return the difference to the ledger.
			a.ctrl.ReleaseBlock(ci, it.ri, int64(old-reported))
			cur = reported
		case reported > old:
			// The edge holds more than this ledger knows — a reattach to a
			// promoted authority whose replayed backing predates the last
			// grants. The capacity fit the bound when the old authority
			// granted it, so the reservation succeeds once every member's
			// stale backing has been adjusted; until then, reject the item
			// and let the edge retry (its TTL stays unrefreshed, failing
			// safe if this never converges).
			if !a.ctrl.ReserveBlock(ci, it.ri, int64(reported-old)) {
				a.logf("cluster: cannot yet account node %d (%d,%d): reported %d, backed %d",
					node, it.ci, it.ri, reported, old)
				grants[i] = leaseRejected
				continue
			}
			cur = reported
		}
		if it.want > 0 && !a.settling {
			g := int64(it.want)
			for g > 0 && !a.ctrl.ReserveBlock(ci, it.ri, g) {
				g >>= 1
			}
			if g > 0 {
				grants[i] = uint64(g)
				cur += uint64(g)
				anyGrant = true
			}
		}
		if cur != old {
			if err := a.log.AppendLease(node, it.ci, it.ri, cur, false); err != nil {
				// Journal refused (shutdown): unwind the grant and fail the
				// call; nothing unjournaled is ever acknowledged.
				if g := grants[i]; g > 0 && g != leaseRejected {
					a.ctrl.ReleaseBlock(ci, it.ri, int64(g))
				}
				return grants, err
			}
			if cur == 0 {
				delete(a.backing, key)
			} else {
				a.backing[key] = cur
			}
		}
	}
	if anyGrant {
		// One group commit covers every record this call staged; grants
		// are durable before the edge hears about them.
		if err := a.log.Flush(); err != nil {
			return grants, err
		}
	}
	return grants, nil
}

// handleRevoke releases capacity a detaching edge hands back. Statuses
// are 0 per item, 1 when the relinquished amount exceeded the backing
// (clamped — a protocol oddity, not a safety problem).
func (a *authority) handleRevoke(node uint32, items []revokeItem, now time.Time) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	statuses := make([]byte, len(items))
	for i, it := range items {
		ci := int(it.ci)
		if ci < 0 || ci >= a.ctrl.ClassCount() || it.ri < 0 || int(it.ri) >= a.ctrl.RouteCount(ci) {
			return nil, fmt.Errorf("cluster: revoke item (%d,%d) out of range", it.ci, it.ri)
		}
		key := backKey{node: node, ci: it.ci, ri: it.ri}
		old := a.backing[key]
		take := it.amount
		if take > old {
			take, statuses[i] = old, 1
		}
		if take == 0 {
			continue
		}
		a.ctrl.ReleaseBlock(ci, it.ri, int64(take))
		cur := old - take
		if err := a.log.AppendLease(node, it.ci, it.ri, cur, false); err != nil {
			return nil, err
		}
		if cur == 0 {
			delete(a.backing, key)
		} else {
			a.backing[key] = cur
		}
	}
	return statuses, nil
}

// fetchBufs holds the read buffers of handleFetch; a fetch response is
// encoded out of one before it goes back.
var fetchBufs = sync.Pool{New: func() any { return new([fetchMax]byte) }}

// handleFetch serves verbatim durable segment bytes plus the current
// tail position (the follower's lag gauge), as a fetch response
// appended to dst. The read is sized by what lies between the follower
// and the durable tail: a follower that has caught up — every
// follower, on nearly every heartbeat — reads nothing and takes no
// buffer.
func (a *authority) handleFetch(seg uint64, off int64, max uint32, dst []byte) ([]byte, error) {
	if max > fetchMax {
		max = fetchMax
	}
	tailSeg, tailOff := a.log.TailPos()
	if left := tailOff - off; seg == tailSeg && left >= 0 && left < int64(max) {
		max = uint32(left)
	}
	var data []byte
	if max > 0 {
		buf := fetchBufs.Get().(*[fetchMax]byte)
		defer fetchBufs.Put(buf)
		data = buf[:max]
	}
	n, eos, err := a.log.ReadSegmentAt(seg, off, data)
	if err != nil {
		return nil, err
	}
	return appendFetchResp(dst, tailSeg, tailOff, eos, data[:n]), nil
}

// reap reclaims the backing of edges silent past the suspicion
// timeout. Their lease TTLs (≤ the suspicion timeout) have lapsed, so
// they stopped spending the budget before it is reclaimed here.
func (a *authority) reap(now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for node, seen := range a.lastSeen {
		if node == a.cfg.NodeID || now.Sub(seen) <= a.cfg.SuspicionTimeout {
			continue
		}
		a.logf("cluster: node %d silent for %v, reclaiming its leases", node, now.Sub(seen))
		a.dropNodeLocked(node)
		delete(a.lastSeen, node)
	}
	a.checkSettleLocked(now)
}

// dropNodeLocked releases and journals away all of a node's backing.
func (a *authority) dropNodeLocked(node uint32) {
	for key, n := range a.backing {
		if key.node != node {
			continue
		}
		a.ctrl.ReleaseBlock(int(key.ci), key.ri, int64(n))
		if err := a.log.AppendLease(node, key.ci, key.ri, 0, false); err != nil {
			a.logf("cluster: journaling lease reclaim for node %d: %v", node, err)
		}
		delete(a.backing, key)
	}
}

// checkSettleLocked ends the settling phase once every member has
// reattached, or the deadline has passed — at which point members that
// never reported are declared dead and their replayed backing is
// reclaimed.
func (a *authority) checkSettleLocked(now time.Time) {
	if !a.settling {
		return
	}
	expired := !now.Before(a.settleBy)
	for _, m := range a.cfg.Members {
		if a.attached[m.ID] {
			continue
		}
		if !expired {
			return
		}
		a.logf("cluster: member %d never reattached, reclaiming its leases", m.ID)
		a.dropNodeLocked(m.ID)
	}
	a.settling = false
	a.logf("cluster: settled; grants open")
}

// backingSnapshot copies the backing map (tests, status).
func (a *authority) backingSnapshot() map[backKey]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[backKey]uint64, len(a.backing))
	for k, v := range a.backing {
		out[k] = v
	}
	return out
}

// replayState collects lease records during promotion replay. A
// cluster-mode log carries only epoch and lease records; anything else
// means the directory belonged to a single-node daemon and cannot be
// promoted from.
type replayState struct {
	ctrl    *admission.Controller
	backing map[backKey]uint64
}

func newReplayState(ctrl *admission.Controller) *replayState {
	return &replayState{ctrl: ctrl, backing: make(map[backKey]uint64)}
}

func (r *replayState) RestoreSnapshot([]byte) error {
	return fmt.Errorf("cluster: snapshot in a cluster-mode log (cluster logs are full-history)")
}

func (r *replayState) ReplayAdmit(id, seq uint64, class, route int32) error {
	return fmt.Errorf("cluster: single-node admit record in a cluster-mode log")
}

func (r *replayState) ReplayTeardown(id uint64) error {
	return fmt.Errorf("cluster: single-node teardown record in a cluster-mode log")
}

// ReplayLease applies one absolute backing record; last writer wins.
func (r *replayState) ReplayLease(node uint32, class, route int32, backing uint64) error {
	ci := int(class)
	if ci < 0 || ci >= r.ctrl.ClassCount() || route < 0 || int(route) >= r.ctrl.RouteCount(ci) {
		return fmt.Errorf("cluster: lease record (%d,%d) out of range", class, route)
	}
	key := backKey{node: node, ci: class, ri: route}
	if backing == 0 {
		delete(r.backing, key)
	} else {
		r.backing[key] = backing
	}
	return nil
}
