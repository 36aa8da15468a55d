package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubac/internal/admission"
	"ubac/internal/core"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/wire"
)

// The telemetry sink must satisfy the cluster observer contract
// structurally, like it does the WAL's and the wire transport's.
var _ Observer = (*telemetry.RegistrySink)(nil)

// newTestController builds the standard MCI voice controller; every
// call yields an identical twin (deterministic route selection), which
// is exactly the cluster's deployment contract: every member runs the
// same admission configuration.
func newTestController(t testing.TB) *admission.Controller {
	t.Helper()
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(topology.MCI(), classes)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Configure(map[string]float64{"voice": 0.30})
	if err != nil || !dep.Safe() {
		t.Fatalf("configure: %v", err)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// hubController builds a dumbbell by hand — k sources, a two-router
// core, k sinks, one voice route per (source, sink) pair — so that all
// k² routes cross the one core link, whose limit is coreFlows voice
// flows (the access links hold a hundred times that). With
// k² × LeaseBlock above coreFlows the edges cannot each park a block on
// every route: the hub contention of the default topologies, at a size
// where the reclaim path is reached within milliseconds. Like
// newTestController, every call yields an identical twin.
func hubController(t testing.TB, k int, coreFlows int) *admission.Controller {
	t.Helper()
	const alpha = 0.5
	voice := traffic.Voice()
	coreCap := float64(coreFlows) * voice.Bucket.Rate / alpha
	b := topology.NewBuilder(fmt.Sprintf("hub-%dx%d", k, k))
	left, right := b.Router("L", topology.Core), b.Router("R", topology.Core)
	b.Link(left, right, coreCap)
	srcs, dsts := make([]int, k), make([]int, k)
	for i := 0; i < k; i++ {
		srcs[i] = b.Router(fmt.Sprintf("s%d", i), topology.Edge)
		dsts[i] = b.Router(fmt.Sprintf("d%d", i), topology.Edge)
		b.Link(srcs[i], left, 100*coreCap)
		b.Link(right, dsts[i], 100*coreCap)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := routes.NewSet(net)
	for _, src := range srcs {
		for _, dst := range dsts {
			r, err := routes.FromRouterPath(net, voice.Name, []int{src, left, right, dst})
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctrl, err := admission.NewController(net, []admission.ClassConfig{{Class: voice, Alpha: alpha, Routes: set}}, admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// clusterTopologies are what the load-bearing cluster tests run on:
// the MCI backbone, and a hub whose core holds fewer flows than the
// blocks its 16 routes would park on it (testTimings: 16 × 32), so the
// sibling reclaim is part of every run.
var clusterTopologies = []struct {
	name  string
	build func(testing.TB) *admission.Controller
}{
	{"mci", newTestController},
	{"hub", func(t testing.TB) *admission.Controller { return hubController(t, 4, 150) }},
}

// countObs counts cluster telemetry with atomics (the registry sink is
// exercised separately; tests want exact per-node numbers).
type countObs struct {
	synced, grants, misses, roles atomic.Int64
	dry, down, reclaims           atomic.Int64
}

func (o *countObs) ClusterAdmitSync(n int)     { o.synced.Add(int64(n)) }
func (o *countObs) ClusterGrant(time.Duration) { o.grants.Add(1) }
func (o *countObs) ClusterLag(int64)           {}
func (o *countObs) ClusterReclaim()            { o.reclaims.Add(1) }
func (o *countObs) ClusterLeaseReject(cause string, n int) {
	if cause == causeDown {
		o.down.Add(int64(n))
	} else {
		o.dry.Add(int64(n))
	}
}
func (o *countObs) ClusterRoleChange()    { o.roles.Add(1) }
func (o *countObs) ClusterHeartbeatMiss() { o.misses.Add(1) }

// testNode is one harness member: real controller, real node, real
// wire server on a real loopback listener. A member is dead until
// bootNode brings it up, and again once killNode takes it down.
type testNode struct {
	id   uint32
	addr string
	dir  string
	ctrl *admission.Controller
	node *Node
	srv  *wire.Server
	obs  *countObs
	done chan error
	dead bool
	// heard counts the heartbeats this member's wire server took, by
	// sender.
	heard [256]atomic.Int64
}

// ClusterFrame counts a heartbeat by its sender on the way to the node.
func (tn *testNode) ClusterFrame(typ byte, count uint16, body, dst []byte) (uint16, []byte, uint32, string) {
	if typ == wire.FrameHeartbeat {
		if from, err := decodeHeartbeatReq(body); err == nil && from < uint32(len(tn.heard)) {
			tn.heard[from].Add(1)
		}
	}
	return tn.node.ClusterFrame(typ, count, body, dst)
}

// testTimings returns aggressive-but-stable harness timings. The
// suspicion timeout leaves ample slack over loopback RPC latency even
// under the race detector's slowdown: a spurious promotion here is a
// split brain, which the harness treats as a failure.
func testTimings() Config {
	return Config{
		HeartbeatInterval: 15 * time.Millisecond,
		SuspicionTimeout:  600 * time.Millisecond,
		LadderDelay:       300 * time.Millisecond,
		LeaseTTL:          300 * time.Millisecond,
		LeaseBlock:        32,
	}
}

// TestConfigValidateTimings: the timer orderings Validate enforces. A
// heartbeat at or above the lease TTL is refused, because the edge
// renews only on the heartbeat tick; so is one that only the defaults
// bring there.
func TestConfigValidateTimings(t *testing.T) {
	members := []Member{{ID: 0, Addr: "h:1"}}
	cases := []struct {
		hb, ttl, susp time.Duration
		want          string
	}{
		{15 * time.Millisecond, 300 * time.Millisecond, 600 * time.Millisecond, ""},
		{0, 0, 0, ""},
		{500 * time.Millisecond, 500 * time.Millisecond, time.Second, "not below lease TTL"},
		{800 * time.Millisecond, 500 * time.Millisecond, time.Second, "not below lease TTL"},
		{2 * time.Second, 0, 5 * time.Second, "not below lease TTL"},
		{0, 2 * time.Second, time.Second, "exceeds suspicion timeout"},
	}
	for _, c := range cases {
		cfg := Config{NodeID: 0, Members: members, HeartbeatInterval: c.hb, LeaseTTL: c.ttl, SuspicionTimeout: c.susp}.withDefaults()
		err := cfg.Validate()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("heartbeat %v, lease TTL %v, suspicion %v: error %v, want %q", c.hb, c.ttl, c.susp, err, c.want)
		}
	}
}

// startCluster boots an n-node in-process cluster of MCI controllers.
func startCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	return startClusterOn(t, n, newTestController)
}

// startClusterOn boots an n-node in-process cluster over loopback TCP,
// every member on its own twin from build, and waits until it has
// elected an authority.
func startClusterOn(t *testing.T, n int, build func(testing.TB) *admission.Controller) []*testNode {
	t.Helper()
	nodes := newClusterOn(t, n, build, testTimings())
	for _, tn := range nodes {
		bootNode(t, tn)
	}
	waitAuthority(t, nodes, 5*time.Second)
	return nodes
}

// newClusterOn builds an n-node cluster on the given timings whose
// members are all down: each has its loopback address, data directory
// and node, and bootNode brings it up.
func newClusterOn(t *testing.T, n int, build func(testing.TB) *admission.Controller, timings Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	members := make([]Member, n)
	base := t.TempDir()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &testNode{id: uint32(i), addr: ln.Addr().String(), dead: true,
			dir: filepath.Join(base, fmt.Sprintf("node%d", i))}
		members[i] = Member{ID: uint32(i), Addr: nodes[i].addr}
		// Closed until boot: a heartbeat to a member that is down is
		// refused at once rather than left to time out.
		ln.Close()
	}
	for _, tn := range nodes {
		tn.ctrl = build(t)
		tn.obs = &countObs{}
		cfg := timings
		cfg.NodeID = tn.id
		cfg.Members = members
		node, err := NewNode(NodeOptions{
			Config:       cfg,
			Controller:   tn.ctrl,
			DataDir:      tn.dir,
			SegmentBytes: 64 << 10,
			Observer:     tn.obs,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			killNode(t, tn)
		}
	})
	return nodes
}

// bootNode brings a down member up: its wire server listens on the
// member's address and its control loop starts.
func bootNode(t *testing.T, tn *testNode) {
	t.Helper()
	ln, err := net.Listen("tcp", tn.addr)
	if err != nil {
		t.Fatal(err)
	}
	tn.srv = wire.NewServer(tn.ctrl, wire.Options{Cluster: tn})
	tn.done = make(chan error, 1)
	go func() { tn.done <- tn.srv.Serve(ln) }()
	tn.node.Start()
	tn.dead = false
}

// killNode simulates a crash: the wire server goes away abruptly and
// the control loop stops. The data directory is left as it fell.
func killNode(t *testing.T, tn *testNode) {
	t.Helper()
	if tn.dead {
		return
	}
	tn.dead = true
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	_ = tn.srv.Shutdown(ctx)
	cancel()
	<-tn.done
	tn.node.Stop()
}

// authorityOf returns the unique live authority node, or nil.
func authorityOf(nodes []*testNode) *testNode {
	var auth *testNode
	for _, tn := range nodes {
		if tn.dead {
			continue
		}
		if tn.node.Role() == RoleAuthority {
			if auth != nil {
				return nil // split brain: not an elected state
			}
			auth = tn
		}
	}
	return auth
}

// waitAuthority polls until one live node is authority and every other
// live node follows it.
func waitAuthority(t *testing.T, nodes []*testNode, timeout time.Duration) *testNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if a := authorityOf(nodes); a != nil {
			agreed := true
			for _, tn := range nodes {
				if tn.dead || tn == a {
					continue
				}
				if tn.node.AuthorityID() != a.id {
					agreed = false
					break
				}
			}
			if agreed {
				return a
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no authority elected")
	return nil
}

// waitFor polls cond until true or the timeout fails the test.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dialNode opens a reconnecting wire client to one node.
func dialNode(t *testing.T, tn *testNode) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(wire.ClientOptions{
		Addr:         tn.addr,
		Timeout:      2 * time.Second,
		Reconnect:    true,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// routePairsOf fetches the admittable (class, src, dst) tuples.
func routePairsOf(t *testing.T, cl *wire.Client) []wire.RoutePair {
	t.Helper()
	pairs, err := cl.Routes(wire.AllClasses)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no routes")
	}
	return pairs
}

// statusesOf extracts the status bytes for failure messages.
func statusesOf(res []wire.AdmitResult) []uint32 {
	out := make([]uint32, len(res))
	for i, r := range res {
		out[i] = r.Status
	}
	return out
}

// assertBound fails if any (class, server) ledger entry on the node
// exceeds its verified utilization limit.
func assertBound(t *testing.T, tn *testNode) {
	t.Helper()
	ctrl := tn.ctrl
	for ci := 0; ci < ctrl.ClassCount(); ci++ {
		for s := 0; s < ctrl.ServerCount(); s++ {
			if in, lim := ctrl.LedgerInUseMicro(ci, s), ctrl.LimitMicro(ci, s); in > lim {
				t.Fatalf("node %d: class %d server %d: ledger %d exceeds limit %d", tn.id, ci, s, in, lim)
			}
		}
	}
}

// TestClusterElectsAndAdmits: cold boot elects the lowest live ID, and
// a warmed-up edge serves admits with zero cross-node round trips.
func TestClusterElectsAndAdmits(t *testing.T) {
	nodes := startCluster(t, 3)
	auth := authorityOf(nodes)
	if auth == nil {
		t.Fatal("no authority")
	}
	if auth.id != 0 {
		t.Errorf("cold boot elected node %d, want lowest ID 0", auth.id)
	}

	// Drive admits through a follower and warm its lease cells.
	follower := nodes[1]
	cl := dialNode(t, follower)
	pairs := routePairsOf(t, cl)
	reqs := make([]wire.AdmitReq, 16)
	for i := range reqs {
		p := pairs[i%len(pairs)]
		reqs[i] = wire.AdmitReq{Class: p.Class, Src: p.Src, Dst: p.Dst}
	}
	var ids []uint64
	res, err := cl.Admit(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Status == wire.StatusOK {
			ids = append(ids, r.ID)
		}
	}
	if len(ids) == 0 {
		t.Fatalf("warmup admitted nothing: statuses %v", statusesOf(res))
	}
	for _, id := range ids {
		if admission.FlowID(id).Node() != follower.id {
			t.Fatalf("flow ID %x does not carry node ID %d", id, follower.id)
		}
	}

	// Warmed: a burst against the same routes must be all-local.
	preLocal, preSync := follower.ctrl.FastPathStats().Hits, follower.obs.synced.Load()
	res, err = cl.Admit(reqs, res)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for _, r := range res {
		if r.Status == wire.StatusOK {
			ids = append(ids, r.ID)
			admitted++
		}
	}
	if got := follower.ctrl.FastPathStats().Hits - preLocal; got != uint64(admitted) {
		t.Errorf("warmed burst: %d local-path admits for %d admitted", got, admitted)
	}
	if got := follower.obs.synced.Load() - preSync; got != 0 {
		t.Errorf("warmed burst took %d sync round trips, want 0", got)
	}

	// Teardown everything; the budget returns to this edge's cells.
	statuses, err := cl.Teardown(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != wire.StatusOK {
			t.Errorf("teardown %d: status %d", i, st)
		}
	}
	assertBound(t, auth)
}

// TestClusterNodeStatsActive: a cluster member's controller counts the
// flows its edge admitted — what /v1/stats and the registry_slots
// gauge report on a -cluster node. The edge's flows are in the
// controller's own registry, so Active is exact: N after N admits over
// the wire at a follower, 0 after their teardown, and nothing on the
// members that admitted none.
func TestClusterNodeStatsActive(t *testing.T) {
	nodes := startCluster(t, 3)
	follower := nodes[1]
	cl := dialNode(t, follower)
	pairs := routePairsOf(t, cl)
	const n = 200
	reqs := make([]wire.AdmitReq, n)
	for i := range reqs {
		p := pairs[i%len(pairs)]
		reqs[i] = wire.AdmitReq{Class: p.Class, Src: p.Src, Dst: p.Dst}
	}
	res, err := cl.Admit(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 0, n)
	for _, r := range res {
		if r.Status != wire.StatusOK {
			t.Fatalf("admit on an empty cluster: statuses %v", statusesOf(res))
		}
		ids = append(ids, r.ID)
	}
	st := follower.ctrl.Stats()
	if st.Active != n || st.MaxActive != n || st.Admitted != n || st.RegistrySlots < n {
		t.Fatalf("follower stats after %d admits: %+v", n, st)
	}
	for _, tn := range nodes {
		if tn != follower && tn.ctrl.Stats().Admitted != 0 {
			t.Errorf("node %d counts %d admits it never served", tn.id, tn.ctrl.Stats().Admitted)
		}
	}
	statuses, err := cl.Teardown(ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, status := range statuses {
		if status != wire.StatusOK {
			t.Fatalf("teardown %d: status %d", i, status)
		}
	}
	st = follower.ctrl.Stats()
	if st.Active != 0 || st.TornDown != n || st.MaxActive != n {
		t.Fatalf("follower stats after the drain: %+v", st)
	}
	// A second teardown of the same IDs finds nothing and moves nothing.
	statuses, err = cl.Teardown(ids[:8], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, status := range statuses {
		if status != wire.StatusUnknownFlow {
			t.Errorf("repeated teardown %d: status %d, want unknown flow", i, status)
		}
	}
	if got := follower.ctrl.Stats().Active; got != 0 {
		t.Errorf("Active %d after repeated teardowns, want 0", got)
	}
}

// TestStoppedMemberTakesNoLease: a follower stops — as ubacd stops its
// node before draining its transports — and hands its leases back, so
// the authority backs nothing for it. A teardown that arrives afterwards
// succeeds and is harmless: no admit takes a lease again, on the route
// it freed or on any other, the authority's backing for the node stays
// 0, and no report reaches it that it cannot account.
func TestStoppedMemberTakesNoLease(t *testing.T) {
	nodes := newClusterOn(t, 3, newTestController, testTimings())
	var mu sync.Mutex
	var lines []string
	for _, tn := range nodes {
		tn.node.logf = func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
			t.Logf(format, args...)
		}
		bootNode(t, tn)
	}
	auth := waitAuthority(t, nodes, 5*time.Second)
	follower := nodes[0]
	if follower == auth {
		follower = nodes[1]
	}
	set, err := follower.ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := set.Route(0), set.Route(1)
	id, err := follower.ctrl.Admit("voice", r0.Src, r0.Dst)
	if err != nil {
		t.Fatal(err)
	}

	follower.node.Stop()
	follower.dead = true // the cleanup must not stop it twice
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = follower.srv.Shutdown(ctx)
		<-follower.done
	})
	backed := func(when string) {
		t.Helper()
		for k, b := range auth.node.auth.backingSnapshot() {
			if k.node == follower.id && b != 0 {
				t.Errorf("%s: the authority backs %d on (%d,%d) for the stopped node", when, b, k.ci, k.ri)
			}
		}
	}
	backed("after the stop")
	if err := follower.ctrl.Teardown(id); err != nil {
		t.Fatalf("teardown of a flow admitted before the stop: %v", err)
	}
	for _, r := range []routes.Route{r0, r1} {
		if _, err := follower.ctrl.Admit("voice", r.Src, r.Dst); !errors.Is(err, admission.ErrCapacity) {
			t.Errorf("admit on (%d,%d) after the stop: %v, want ErrCapacity", r.Src, r.Dst, err)
		}
	}
	backed("after the admits")
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "cannot yet account") {
			t.Errorf("authority log: %s", l)
		}
	}
}

// TestClusterRejectsUnroutable: wire error semantics pass through the
// edge plane unchanged.
func TestClusterRejectsUnroutable(t *testing.T) {
	nodes := startCluster(t, 2)
	cl := dialNode(t, nodes[1])
	res, err := cl.Admit([]wire.AdmitReq{{Class: 0, Src: 0, Dst: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != wire.StatusNoRoute {
		t.Fatalf("self-pair admit: status %d, want %d", res[0].Status, wire.StatusNoRoute)
	}
	if _, err := cl.Teardown([]uint64{999}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFetchAheadOfAuthorityPauses: a fetch for a position the authority
// does not hold comes back as a typed wire status, and that status —
// not the message text — is what pauses a follower whose mirror has run
// ahead.
func TestFetchAheadOfAuthorityPauses(t *testing.T) {
	nodes := startCluster(t, 2)
	auth := authorityOf(nodes)
	follower := nodes[0]
	if follower == auth {
		follower = nodes[1]
	}

	cl := dialNode(t, auth)
	_, err := cl.ClusterCall(wire.FrameFetch, 0, appendFetchReq(nil, 1<<20, 0, fetchMax), 0)
	if !errors.Is(err, wire.ErrFetchOutOfRange) {
		t.Fatalf("fetch of a segment the authority does not have: %v, want ErrFetchOutOfRange", err)
	}
	_, err = cl.ClusterCall(wire.FrameFetch, 0, appendFetchReq(nil, 0, 1<<40, fetchMax), 0)
	if !errors.Is(err, wire.ErrFetchOutOfRange) {
		t.Fatalf("fetch past the durable tail: %v, want ErrFetchOutOfRange", err)
	}
	if follower.node.pauseIfAhead(auth.id, errors.New("wire: round-trip timeout")) {
		t.Fatal("an unrelated fetch error paused replication")
	}

	isPaused := func() bool {
		follower.node.mu.Lock()
		defer follower.node.mu.Unlock()
		return follower.node.paused
	}
	if isPaused() {
		t.Fatal("follower paused before its mirror ran ahead")
	}
	follower.node.mu.Lock()
	follower.node.cursorSeg = 1 << 20
	follower.node.mu.Unlock()
	waitFor(t, 5*time.Second, "the follower to pause replication", isPaused)
}
