package admission

import (
	"sync"
	"testing"

	"ubac/internal/policy"
	"ubac/internal/telemetry"
)

// countRefill is a remote refill with a fixed budget per controller:
// it counts the takes it serves and refuses. A unit it hands out goes
// straight to a flow, and a teardown returns it to the route's cell, as
// a member's units stay with the member until a renewal.
type countRefill struct {
	mu                   sync.Mutex
	budget, taken, local int64
	dry                  int
}

func (s *countRefill) Take(ci int, ri int32) (int, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taken++
	if s.budget == 0 {
		s.dry++
		return -1, false, false
	}
	s.budget--
	s.local++
	return -1, true, false
}

// held is the units the refill and the controller's cells hold between
// them.
func (s *countRefill) held(c *Controller) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.budget
	for ci := 0; ci < c.ClassCount(); ci++ {
		for ri := 0; ri < c.RouteCount(ci); ri++ {
			n += c.Cell(ci, int32(ri)).Budget()
		}
	}
	return n
}

// TestRefillSeam: with a remote refill installed, every admit entry
// point takes its unit from the route's cell or, the cell dry, from the
// refill, and runs the policy and the decision record as a single node
// does; the ledger is never touched; IDs carry the member's node bits,
// and an ID without them is refused. Teardowns put every unit back.
func TestRefillSeam(t *testing.T) {
	c, _ := testController(t, 0.3)
	const node = 9
	src := &countRefill{budget: 4}
	c.SetRefill(src, node)
	ring := telemetry.NewRing(64)
	c.SetSink(telemetry.NewRegistrySink(telemetry.NewRegistry(), ring))
	tb, err := policy.NewTokenBucket(policy.BucketConfig{Rate: 1e9, Burst: 1e9},
		map[string]policy.BucketConfig{"capped": {Rate: 1e-9, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPolicy(tb)

	var live []FlowID
	admitted := func(id FlowID, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if id.Node() != node {
			t.Fatalf("ID %#x carries node %d, want %d", uint64(id), id.Node(), node)
		}
		live = append(live, id)
	}
	admitted(c.Admit("voice", 0, 2))
	admitted(c.AdmitWithTenant("voice", "capped", 0, 2))
	if _, err := c.AdmitWithTenant("voice", "capped", 0, 2); err != ErrPolicyRate {
		t.Fatalf("second capped admit: %v, want ErrPolicyRate", err)
	}
	res := c.AdmitBatch([]BatchItem{
		{Class: "voice", Src: 0, Dst: 2}, {Class: "voice", Src: 2, Dst: 0},
		{Class: "voice", Src: 0, Dst: 1}, {Class: "voice", Src: 1, Dst: 1},
	}, nil)
	for i, want := range []error{nil, nil, ErrCapacity, ErrNoRoute} {
		if res[i].Err != want {
			t.Fatalf("batch item %d: %v, want %v", i, res[i].Err, want)
		}
		if want == nil {
			admitted(res[i].ID, nil)
		}
	}
	if src.taken != 5 || src.budget != 0 || src.local != 4 || src.dry != 1 {
		t.Fatalf("refill after the admits: %+v, want 5 takes, 4 served and 1 dry", src)
	}
	for ci := 0; ci < c.ClassCount(); ci++ {
		for s := 0; s < c.ServerCount(); s++ {
			if in := c.LedgerInUseMicro(ci, s); in != 0 {
				t.Fatalf("class %d server %d: ledger holds %d with a remote refill installed", ci, s, in)
			}
		}
	}
	if st := c.Stats(); st.Active != 4 || st.Rejected != 2 || st.RejectedPolicy != 1 {
		t.Fatalf("stats after the admits: %+v", st)
	}

	if err := c.Teardown(live[0].WithNode(node + 1)); err != ErrUnknownFlow {
		t.Fatalf("teardown under another node's bits: %v, want ErrUnknownFlow", err)
	}
	if err := c.Teardown(live[0].WithNode(0)); err != ErrUnknownFlow {
		t.Fatalf("teardown without node bits: %v, want ErrUnknownFlow", err)
	}
	if err := c.Teardown(live[0]); err != nil {
		t.Fatal(err)
	}
	errs := c.TeardownBatch([]FlowID{live[1].WithNode(0), live[1], live[2], live[3]}, nil)
	if errs[0] != ErrUnknownFlow || errs[1] != nil || errs[2] != nil || errs[3] != nil {
		t.Fatalf("batch teardown: %v", errs)
	}
	if held := src.held(c); held != 4 || c.Stats().Active != 0 {
		t.Fatalf("after every teardown: budget %d of 4, %+v", held, c.Stats())
	}

	// The decisions are the single node's: admits and teardowns carry
	// the stamped IDs.
	evs := ring.Snapshot(64)
	verdicts := map[string]int{}
	for _, ev := range evs {
		verdicts[ev.Verdict]++
		if ev.Verdict == "admit" || ev.Verdict == "teardown" {
			if FlowID(ev.FlowID).Node() != node {
				t.Errorf("%s event for %#x lacks the node bits", ev.Verdict, ev.FlowID)
			}
		}
	}
	if verdicts["admit"] != 4 || verdicts["teardown"] != 4 || verdicts["reject"] != 3 {
		t.Errorf("events by verdict: %v", verdicts)
	}
}
