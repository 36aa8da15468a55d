package cluster

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"ubac/internal/wal"
)

// TestColdBootElectsWithinOneRound: with every member up and none
// knowing an authority, the lowest ID promotes at epoch 1 on the first
// heartbeat round, long before the suspicion timeout that the ladder
// would wait out.
func TestColdBootElectsWithinOneRound(t *testing.T) {
	timings := testTimings()
	nodes := newClusterOn(t, 3, newTestController, timings)
	start := time.Now()
	for _, tn := range nodes {
		bootNode(t, tn)
	}
	auth := waitAuthority(t, nodes, 5*time.Second)
	took := time.Since(start)
	if auth.id != 0 {
		t.Errorf("cold boot elected node %d, want lowest ID 0", auth.id)
	}
	if e := auth.node.Epoch(); e != 1 {
		t.Errorf("cold boot elected at epoch %d, want 1", e)
	}
	if took >= timings.SuspicionTimeout/2 {
		t.Errorf("cold boot took %v to elect, want under %v", took, timings.SuspicionTimeout/2)
	}
}

// TestColdBootWithoutTicks: with an hour's heartbeat the tickers never
// fire, so only Start and heartbeat news run rounds. Members booted one
// after another still elect node 0 at epoch 1, and all follow it within
// 200 ms of the last Start: the last member's first round heartbeats
// node 0, which had not reached it, and node 0's announcement reaches
// the others as a heartbeat from the member they would elect.
func TestColdBootWithoutTicks(t *testing.T) {
	nodes := newClusterOn(t, 3, newTestController, Config{
		HeartbeatInterval: time.Hour,
		LeaseTTL:          2 * time.Hour,
		SuspicionTimeout:  3 * time.Hour,
		LeaseBlock:        32,
	})
	for _, tn := range nodes {
		bootNode(t, tn)
	}
	last := time.Now()
	auth := waitAuthority(t, nodes, time.Second)
	took := time.Since(last)
	if auth.id != 0 || auth.node.Epoch() != 1 {
		t.Errorf("node %d elected at epoch %d, want node 0 at epoch 1", auth.id, auth.node.Epoch())
	}
	if took > 200*time.Millisecond {
		t.Errorf("every member followed %v after the last Start, want within 200ms", took)
	}
}

// TestFailoverSurvivorsFollowAtOnce: when the authority dies, the
// rank-0 survivor promotes by the ladder and heartbeats the other,
// which still names the dead authority. That survivor follows within
// one heartbeat interval, not when its own ladder wait (LadderDelay
// later) runs out.
func TestFailoverSurvivorsFollowAtOnce(t *testing.T) {
	timings := testTimings()
	timings.HeartbeatInterval = 100 * time.Millisecond
	nodes := newClusterOn(t, 3, newTestController, timings)
	for _, tn := range nodes {
		bootNode(t, tn)
	}
	auth := waitAuthority(t, nodes, 5*time.Second)
	var survivors []*testNode
	for _, tn := range nodes {
		if tn != auth {
			survivors = append(survivors, tn)
		}
	}
	promoter, other := survivors[0], survivors[1]

	killNode(t, auth)
	waitFor(t, 5*time.Second, "the rank-0 survivor to promote", func() bool {
		return promoter.node.Role() == RoleAuthority
	})
	promoted := time.Now()
	waitFor(t, 5*time.Second, "the other survivor to follow", func() bool {
		return other.node.AuthorityID() == promoter.id
	})
	if took := time.Since(promoted); took > timings.HeartbeatInterval {
		t.Errorf("node %d followed node %d %v after it promoted, want within %v",
			other.id, promoter.id, took, timings.HeartbeatInterval)
	}
}

// TestHeadlessRoundsBounded: with a member down the live members stay
// headless until the suspicion timeout, and their heartbeats are news
// to one another. A headless round heartbeats every other member once,
// and only the lowest live member's rounds set off others', so no
// member runs more than two rounds per heartbeat interval: at most
// 2 × (members − 1) heartbeats, and at most two to any one live peer.
// A rule that took news from any lower ID would compound down the
// ranks, the rank-r member running 2^r rounds per interval.
func TestHeadlessRoundsBounded(t *testing.T) {
	for _, members := range []int{3, 5} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			timings := testTimings()
			nodes := newClusterOn(t, members, newTestController, timings)
			live := nodes[:members-1]
			for _, tn := range live {
				bootNode(t, tn)
			}
			// Past the boot, whose arrivals are news once each.
			time.Sleep(3 * timings.HeartbeatInterval)
			heard := func() (n [][]int64) {
				for _, r := range live {
					row := make([]int64, members)
					for s := range row {
						row[s] = r.heard[s].Load()
					}
					n = append(n, row)
				}
				return n
			}
			start, before := time.Now(), heard()
			time.Sleep(timings.SuspicionTimeout / 2)
			elapsed, after := time.Since(start), heard()
			if a := authorityOf(nodes); a != nil {
				t.Fatalf("node %d promoted inside the window, before the suspicion timeout", a.id)
			}
			// One more round at each edge of the window than whole
			// intervals fit in it.
			limit := 2 * (int64(elapsed/timings.HeartbeatInterval) + 2)
			for ri, r := range live {
				for _, s := range live {
					if s == r {
						continue
					}
					if got := after[ri][s.id] - before[ri][s.id]; got > limit {
						t.Errorf("node %d heartbeat node %d %d times in %v (%.1f per %v), want at most %d",
							s.id, r.id, got, elapsed, float64(got)*float64(timings.HeartbeatInterval)/float64(elapsed),
							timings.HeartbeatInterval, limit)
					}
				}
			}
		})
	}
}

// TestColdBootMemberDownUsesLadder: a member down at boot never answers
// cold, so the cluster waits out the suspicion timeout and elects by
// the ladder — still the lowest live ID.
func TestColdBootMemberDownUsesLadder(t *testing.T) {
	timings := testTimings()
	nodes := newClusterOn(t, 3, newTestController, timings)
	start := time.Now()
	bootNode(t, nodes[0])
	bootNode(t, nodes[1])
	var first time.Duration
	waitFor(t, 5*time.Second, "an authority", func() bool {
		first = time.Since(start)
		return authorityOf(nodes) != nil
	})
	if first < timings.SuspicionTimeout {
		t.Errorf("an authority existed %v after boot, before the %v suspicion timeout", first, timings.SuspicionTimeout)
	}
	if auth := waitAuthority(t, nodes, 5*time.Second); auth.id != 0 {
		t.Errorf("ladder elected node %d, want lowest live ID 0", auth.id)
	}
}

// TestColdBootJoinsRunningAuthority: the lowest ID booting into a
// cluster that already has an authority follows it; it does not take
// the cold start, and no new epoch opens.
func TestColdBootJoinsRunningAuthority(t *testing.T) {
	nodes := newClusterOn(t, 3, newTestController, testTimings())
	bootNode(t, nodes[1])
	bootNode(t, nodes[2])
	auth := waitAuthority(t, nodes, 5*time.Second)
	if auth.id != 1 || auth.node.Epoch() != 1 {
		t.Fatalf("node %d elected at epoch %d, want node 1 at epoch 1", auth.id, auth.node.Epoch())
	}

	late := nodes[0]
	bootNode(t, late)
	// Replicating the authority's log takes several exchanges with it.
	waitFor(t, 5*time.Second, "node 0 to replicate from node 1", func() bool {
		late.node.mu.Lock()
		defer late.node.mu.Unlock()
		return late.node.authorityID == 1 && late.node.cursorOff > 0
	})
	if a := waitAuthority(t, nodes, 5*time.Second); a != auth {
		t.Fatalf("node %d is authority after node 0 joined, want node 1", a.id)
	}
	for _, tn := range nodes {
		if e := tn.node.Epoch(); e != 1 {
			t.Errorf("node %d at epoch %d after node 0 joined, want 1", tn.id, e)
		}
	}
	if r := late.node.Role(); r != RoleFollower {
		t.Errorf("node 0 is %v, want follower", r)
	}
}

// TestColdBootFailedPromotionUsesLadder: a lowest ID whose promotion
// fails — its data dir holds a snapshot, which a cluster log never has —
// leaves the cold start for good. It retries only on the ladder, at
// suspicion-timeout intervals, rather than on every tick, and the next
// rank wins by the ladder.
func TestColdBootFailedPromotionUsesLadder(t *testing.T) {
	nodes := newClusterOn(t, 3, newTestController, testTimings())
	bad := nodes[0]
	log, err := wal.Open(wal.Options{Dir: bad.dir, SegmentBytes: 64 << 10, Fingerprint: bad.ctrl.Fingerprint(), Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.WriteSnapshot(func() (uint64, []byte) { return 1, []byte("not a cluster log") }); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tn := range nodes {
		bootNode(t, tn)
	}
	if auth := waitAuthority(t, nodes, 5*time.Second); auth.id != 1 {
		t.Fatalf("node %d elected, want node 1 by the ladder", auth.id)
	}
	// Each attempt is two role changes (candidate, then follower on the
	// failure). The cold start and one ladder retry fit before node 1's
	// rank delay runs out; a cold start left on would retry every tick.
	if got := bad.obs.roles.Load(); got > 8 {
		t.Errorf("node 0 changed role %d times, want at most 8", got)
	}
}

// TestConcurrentPromotersElectOne: two followers pass their ladder wait
// at the same instant, round after round. Each declares itself a
// candidate before it probes the other, so at most one of them ever
// promotes. The control loops run rounds only at Start and on heartbeat
// news (an hour's heartbeat), and those rounds never promote: real time
// never reaches the suspicion timeout, and with node 0 down neither
// member ranks first for a cold start. So the test's goroutines are the
// only promoters.
func TestConcurrentPromotersElectOne(t *testing.T) {
	timings := Config{
		HeartbeatInterval: time.Hour,
		LeaseTTL:          2 * time.Hour,
		SuspicionTimeout:  3 * time.Hour,
		LadderDelay:       time.Hour,
		LeaseBlock:        32,
	}
	nodes := newClusterOn(t, 3, newTestController, timings)
	promoters := nodes[1:]
	for _, tn := range promoters {
		bootNode(t, tn)
	}
	elected := 0
	for round := 0; round < 200; round++ {
		at := time.Now().Add(6 * time.Hour) // past both ranks' ladder wait
		release := make(chan struct{})
		var wg sync.WaitGroup
		for _, tn := range promoters {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				<-release
				n.maybePromote(at, false)
			}(tn.node)
		}
		close(release)
		wg.Wait()

		authorities := 0
		for _, tn := range promoters {
			if tn.node.Role() == RoleAuthority {
				authorities++
			}
		}
		if authorities > 1 {
			t.Fatalf("round %d: %d authorities", round, authorities)
		}
		elected += authorities
		for _, tn := range promoters {
			demote(t, tn)
		}
	}
	t.Logf("%d of 200 rounds elected one authority, the rest none", elected)
}

// demote returns a node to a follower that knows no authority, on an
// empty data directory.
func demote(t *testing.T, tn *testNode) {
	t.Helper()
	n := tn.node
	n.mu.Lock()
	log := n.log
	n.role, n.authorityID, n.auth, n.log = RoleFollower, NoAuthority, nil, nil
	n.lastContact = time.Now()
	n.mu.Unlock()
	if log == nil {
		return
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(tn.dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(tn.dir, 0o755); err != nil {
		t.Fatal(err)
	}
}
