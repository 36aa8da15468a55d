// Package cluster is the distributed admission plane: a static set of
// nodes that together enforce the paper's utilization bound while
// serving admits from every node.
//
// One node at a time is the authority. It owns the real per-server
// utilization ledger (an admission.Controller used purely as that
// ledger) and delegates capacity to the other nodes as leases: a lease
// is a block of per-(class, route) flow-slots, reserved wholesale on
// every hop of the route (the controller's wholesale lease) before it
// is granted — the paper's admission test applied n flows at a time,
// all hops or none. An edge that holds budget therefore holds capacity
// the authority has already accounted, and the utilization bound holds
// cluster-wide by construction: no interleaving of edge admits can
// exceed what was reserved first.
//
// Every node — the authority included — serves admits through its own
// admission controller, from the controller's per-route lease cells,
// with the node's edge plane as their refill: an admit takes one
// compare-and-swap on a local lease cell and zero cross-node round
// trips; only lease grant, renewal, reclaim and WAL shipping cross the
// network, as cluster frames on the wire protocol. The authority's own
// edge plane simply grants in-process.
//
// The authority journals every lease change to its WAL as an absolute
// backing record (grants fsynced before the ack, releases async — a
// lost release replays as a larger, conservative backing) and serves
// the log to followers as verbatim segment bytes. Each node's control
// loop runs a heartbeat round at start, on every heartbeat tick, and
// when a heartbeat brings news to a node without a live authority: a
// member it could not reach has come up, or the member it would elect
// has contacted it. A cold cluster elects its lowest-ID member as soon
// as every member answers a heartbeat without knowing an authority. On
// authority failure, or a cold boot with a member down, the followers
// promote by rank after the suspicion timeout. Either way a promoter
// first declares itself a candidate and then probes the membership
// once more, so two promoters that can reach each other do not both
// proceed, and once promoted it heartbeats every member at once, so
// the others follow it within a round trip. Promoting means:
// replay the fetched log, re-reserve every replayed backing on a fresh
// ledger, open a new epoch, and settle — accept reattach reports
// carrying each edge's exact held capacity, granting nothing new until
// every static member has reattached or outlived the suspicion
// timeout. Edges keep admitting against their leased budget through
// the failover and stop when the lease TTL runs out unrefreshed, so the
// bound holds even while no authority is reachable.
//
// Known limitations, by design at this scale: membership is static;
// there is no quorum, so a partitioned minority that exhausts the rank
// ladder can promote a second authority, because promoters that cannot
// reach each other never see each other's candidacy (deploy odd
// ladders and fencing at the operational layer); a failed authority
// must rejoin with a clean data directory; and the cluster log is
// full-history — snapshots would break verbatim segment shipping, so
// the log grows for the lifetime of the deployment.
package cluster

import (
	"fmt"
	"sort"
	"time"
)

// Role is a node's current position in the cluster.
type Role int32

const (
	// RoleFollower serves admits from leased budget and replicates the
	// authority's WAL.
	RoleFollower Role = iota
	// RoleCandidate is mid-promotion: replaying the local log copy.
	RoleCandidate
	// RoleAuthority owns the ledger and grants leases.
	RoleAuthority
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleAuthority:
		return "authority"
	}
	return fmt.Sprintf("role(%d)", int32(r))
}

// NoAuthority is the heartbeat-response authority field when the
// answering node does not currently know one.
const NoAuthority = ^uint32(0)

// Member is one static cluster member. IDs must be unique and below
// 256: every edge-issued flow ID carries the node ID in its eight node
// bits (admission.FlowID.Node), so teardowns route back to the
// admitting node.
type Member struct {
	ID   uint32
	Addr string
}

// Config is a node's static cluster configuration. Every member must
// run with an identical Members list and identical admission
// configuration (the config fingerprint is stamped into the WAL and
// checked on replay).
type Config struct {
	// NodeID is this node's member ID.
	NodeID uint32
	// Members is the full static membership, this node included.
	Members []Member
	// HeartbeatInterval paces the node's control loop: follower
	// heartbeat + fetch, authority reaping (default 100ms). The loop
	// also runs a round at start and on heartbeat news.
	HeartbeatInterval time.Duration
	// SuspicionTimeout is how long without contact before a peer is
	// presumed dead: followers start the promotion ladder, the
	// authority reclaims a silent edge's backing (default 3s).
	SuspicionTimeout time.Duration
	// LadderDelay spaces the promotion ladder: the rank-r member waits
	// SuspicionTimeout + r×LadderDelay without authority contact before
	// it becomes a candidate and probes for an earlier promoter, so
	// exactly one node usually wins (default 500ms). A cold cluster with
	// every member up does not wait: its rank-0 member promotes on the
	// first round in which all the others answer cold. The members
	// ranked after a winner do not wait out their rungs either: its
	// announcement makes them follow it at once.
	LadderDelay time.Duration
	// LeaseTTL bounds how long an edge may admit from budget without a
	// successful renewal. Must not exceed SuspicionTimeout: the edge
	// must stop spending a lease before the authority may reclaim it
	// (default 1s).
	LeaseTTL time.Duration
	// LeaseBlock is the most a (class, route) cell asks for in one
	// lease call, and what a cold cell asks for on the sync path; the
	// renewer holds each cell to its measured working set (default 64).
	LeaseBlock int64
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 3 * time.Second
	}
	if c.LadderDelay <= 0 {
		c.LadderDelay = 500 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Second
	}
	if c.LeaseBlock <= 0 {
		c.LeaseBlock = 64
	}
	return c
}

// Validate checks a fully-defaulted Config; NewNode calls it for you.
func (c Config) Validate() error {
	if len(c.Members) == 0 {
		return fmt.Errorf("cluster: no members")
	}
	seen := make(map[uint32]bool, len(c.Members))
	self := false
	for _, m := range c.Members {
		if m.ID > 255 {
			return fmt.Errorf("cluster: member ID %d exceeds 255 (IDs ride the flow ID's eight node bits)", m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("cluster: duplicate member ID %d", m.ID)
		}
		seen[m.ID] = true
		if m.Addr == "" {
			return fmt.Errorf("cluster: member %d has no address", m.ID)
		}
		if m.ID == c.NodeID {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("cluster: node ID %d not in member list", c.NodeID)
	}
	if c.LeaseTTL > c.SuspicionTimeout {
		return fmt.Errorf("cluster: lease TTL %v exceeds suspicion timeout %v (an edge must stop spending a lease before the authority reclaims it)",
			c.LeaseTTL, c.SuspicionTimeout)
	}
	if c.HeartbeatInterval >= c.LeaseTTL {
		return fmt.Errorf("cluster: heartbeat interval %v is not below lease TTL %v (leases renew on the heartbeat tick, so every lease would lapse between two renewals)",
			c.HeartbeatInterval, c.LeaseTTL)
	}
	return nil
}

// sortedIDs returns the member IDs ascending.
func (c Config) sortedIDs() []uint32 {
	ids := make([]uint32, len(c.Members))
	for i, m := range c.Members {
		ids[i] = m.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// rank returns this node's position on the promotion ladder when
// member `dead` (NoAuthority = nobody) is excluded.
func (c Config) rank(dead uint32) int {
	r := 0
	for _, id := range c.sortedIDs() {
		if id == c.NodeID {
			return r
		}
		if id != dead {
			r++
		}
	}
	return r
}

// addrOf returns a member's address, "" when unknown.
func (c Config) addrOf(id uint32) string {
	for _, m := range c.Members {
		if m.ID == id {
			return m.Addr
		}
	}
	return ""
}

// Observer receives cluster telemetry. telemetry.RegistrySink
// satisfies it structurally; nil observers are replaced by a no-op.
type Observer interface {
	// ClusterAdmitSync counts admits that needed a grant round trip.
	ClusterAdmitSync(n int)
	// ClusterGrant records one grant call and its wall time.
	ClusterGrant(d time.Duration)
	// ClusterLeaseReject counts admits the edge refused on the state of
	// its lease: cause "dry" when a grant round trip came back empty (or
	// within the backoff after one), "down" when the authority could not
	// be reached.
	ClusterLeaseReject(cause string, n int)
	// ClusterReclaim counts the times a dry cell took back the untouched
	// budget of the cells it shares servers with before asking again.
	ClusterReclaim()
	// ClusterLag reports the follower's replication lag in bytes.
	ClusterLag(bytes int64)
	// ClusterRoleChange counts role transitions on this node.
	ClusterRoleChange()
	// ClusterHeartbeatMiss counts failed heartbeat/fetch probes.
	ClusterHeartbeatMiss()
}

type nopObserver struct{}

func (nopObserver) ClusterAdmitSync(int)           {}
func (nopObserver) ClusterGrant(time.Duration)     {}
func (nopObserver) ClusterLeaseReject(string, int) {}
func (nopObserver) ClusterReclaim()                {}
func (nopObserver) ClusterLag(int64)               {}
func (nopObserver) ClusterRoleChange()             {}
func (nopObserver) ClusterHeartbeatMiss()          {}
