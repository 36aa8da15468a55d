package admission

import (
	"errors"
	"testing"
	"time"

	"ubac/internal/policy"
)

// countJournal counts appends without persisting anything, to observe
// what the controller would journal.
type countJournal struct {
	admits, teardowns int
}

func (j *countJournal) AppendAdmit(id, seq uint64, class, route int32) error {
	j.admits++
	return nil
}

func (j *countJournal) AppendAdmitBatch(ids []uint64, seqBase uint64, classes, routes []int32) error {
	j.admits += len(ids)
	return nil
}

func (j *countJournal) AppendTeardown(id uint64) error {
	j.teardowns++
	return nil
}

func (j *countJournal) AppendTeardownBatch(ids []uint64) error {
	j.teardowns += len(ids)
	return nil
}

// TestAlwaysAdmitEquivalence is the compatibility property: a
// controller with AlwaysAdmit installed makes bit-for-bit the same
// decisions (IDs, errors, stats) as one with no policy at all, across
// admit-to-exhaustion and teardown.
func TestAlwaysAdmitEquivalence(t *testing.T) {
	plain, _ := testController(t, 0.3)
	gated, _ := testController(t, 0.3)
	gated.SetPolicy(policy.AlwaysAdmit{})
	if gated.Policy() != nil {
		t.Fatal("SetPolicy(AlwaysAdmit) must strip to the nil fast path")
	}

	var plainIDs, gatedIDs []FlowID
	for step := 0; ; step++ {
		src, dst := step%2, 2 // pairs (0,2) and (1,2)
		idP, errP := plain.Admit("voice", src, dst)
		idG, errG := gated.AdmitWithTenant("voice", "tenant-x", src, dst)
		if !errors.Is(errG, errP) && !errors.Is(errP, errG) {
			t.Fatalf("step %d: plain err %v, gated err %v", step, errP, errG)
		}
		if idP != idG {
			t.Fatalf("step %d: plain ID %d, gated ID %d", step, idP, idG)
		}
		if errP != nil {
			break
		}
		plainIDs = append(plainIDs, idP)
		gatedIDs = append(gatedIDs, idG)
		if step > 1<<20 {
			t.Fatal("never exhausted capacity")
		}
	}
	for i := range plainIDs {
		if i%2 == 1 {
			continue
		}
		errP := plain.Teardown(plainIDs[i])
		errG := gated.Teardown(gatedIDs[i])
		if (errP == nil) != (errG == nil) {
			t.Fatalf("teardown %d: plain %v, gated %v", i, errP, errG)
		}
	}
	if p, g := plain.Stats(), gated.Stats(); p != g {
		t.Fatalf("stats diverged:\nplain %+v\ngated %+v", p, g)
	}
}

// TestPolicyZeroAlloc pins the admit/teardown cycle at zero
// allocations with AlwaysAdmit installed (the ISSUE's hard gate: the
// default path must stay on the PR 4 fast path) and with a token
// bucket installed (Decide is CAS-only).
func TestPolicyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	run := func(name string, install func(*Controller)) {
		c, _ := testController(t, 0.3)
		install(c)
		cycle := func() {
			id, err := c.AdmitWithTenant("voice", "tenant-a", 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Teardown(id); err != nil {
				t.Fatal(err)
			}
		}
		// The singleton path rotates admissions across all registry
		// shards; warm every shard's slot array and freelist.
		for i := 0; i < 2*flowShards; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: %.1f allocs per admit+teardown, want 0", name, allocs)
		}
	}
	run("always_admit", func(c *Controller) { c.SetPolicy(policy.AlwaysAdmit{}) })
	run("token_bucket", func(c *Controller) {
		tb, err := policy.NewTokenBucket(policy.BucketConfig{Rate: 1e9, Burst: 1e9},
			map[string]policy.BucketConfig{"tenant-a": {Rate: 1e9, Burst: 1e9}})
		if err != nil {
			t.Fatal(err)
		}
		c.SetPolicy(tb)
	})
	run("reserve_headroom", func(c *Controller) {
		p, err := policy.NewReserveHeadroom(0.1, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetPolicy(p)
	})
}

// TestPolicyRejectsNotJournaled: the WAL records admitted state only —
// a policy refusal must not produce a journal append, and must leave
// no reservation behind.
func TestPolicyRejectsNotJournaled(t *testing.T) {
	c, _ := testController(t, 0.3)
	j := &countJournal{}
	c.SetJournal(j)
	tb, err := policy.NewTokenBucket(policy.BucketConfig{Rate: 1e-3, Burst: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var now int64 = int64(time.Hour)
	tb.Clock = func() int64 { return now }
	c.SetPolicy(tb)

	before, err := c.Headroom("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit("voice", 0, 2); err != nil {
		t.Fatalf("first admit (one token in the bucket): %v", err)
	}
	if _, err := c.Admit("voice", 0, 2); !errors.Is(err, ErrPolicyRate) {
		t.Fatalf("second admit: %v, want ErrPolicyRate", err)
	}
	// Batch path takes the same contract.
	res := c.AdmitBatch([]BatchItem{{Class: "voice", Src: 0, Dst: 2}}, nil)
	if !errors.Is(res[0].Err, ErrPolicyRate) {
		t.Fatalf("batch admit: %v, want ErrPolicyRate", res[0].Err)
	}
	if j.admits != 1 {
		t.Fatalf("journal saw %d admits, want 1 (policy rejects must not journal)", j.admits)
	}
	after, err := c.Headroom("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if after != before-1 {
		t.Fatalf("headroom %d -> %d: policy rejects must reserve nothing", before, after)
	}
	st := c.Stats()
	if st.RejectedPolicy != 2 || st.Rejected != 2 {
		t.Fatalf("stats %+v: want RejectedPolicy=2 counted inside Rejected=2", st)
	}
}

// TestSLOCascadeBurst reproduces the SLO-shedding result in-process: a
// burst that overloads the cluster is absorbed by sheddable tenants
// first, then standard, while critical traffic is never policy-shed.
func TestSLOCascadeBurst(t *testing.T) {
	c, _ := testController(t, 0.3)
	load := &policy.SampledLoad{Sample: c.MaxUtilization} // Interval 0: probe every decision
	g, err := NewSLOGatedForTest(load)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPolicy(g)

	// alpha=0.3 on 100 Mb/s with 32 kb/s voice flows: 937 flows fill a
	// server. Drive 3 tenants round-robin well past saturation.
	rejects := map[string]map[error]int{
		"gold": {}, "silver": {}, "bronze": {},
	}
	tenants := []string{"gold", "silver", "bronze"}
	for i := 0; i < 3600; i++ {
		tn := tenants[i%3]
		if _, err := c.AdmitWithTenant("voice", tn, 0, 2); err != nil {
			rejects[tn][err]++
		}
	}
	if n := rejects["gold"][ErrPolicyShed]; n != 0 {
		t.Errorf("critical tenant policy-shed %d times, want 0", n)
	}
	if rejects["bronze"][ErrPolicyShed] == 0 {
		t.Error("sheddable tenant was never shed under overload")
	}
	if rejects["silver"][ErrPolicyShed] == 0 {
		t.Error("standard tenant was never shed at saturation")
	}
	if rejects["bronze"][ErrPolicyShed] <= rejects["silver"][ErrPolicyShed] {
		t.Errorf("shed order inverted: bronze %d, silver %d",
			rejects["bronze"][ErrPolicyShed], rejects["silver"][ErrPolicyShed])
	}
	// Critical is only ever refused by the utilization test itself.
	if rejects["gold"][ErrCapacity] == 0 {
		t.Error("overload never reached the critical tenant's utilization test")
	}
}

// NewSLOGatedForTest builds the canonical gold/silver/bronze gate used
// by the cascade tests (standard sheds at 0.9, sheddable at 0.7).
func NewSLOGatedForTest(load policy.LoadSignal) (*policy.SLOGated, error) {
	return policy.NewSLOGated(map[string]policy.Tier{
		"gold":   policy.TierCritical,
		"silver": policy.TierStandard,
		"bronze": policy.TierSheddable,
	}, policy.TierStandard, 0.9, 0.7, load)
}

// TestAdmitBatchPolicyVerdicts: batches carry per-op tenants and get
// per-op policy verdicts, identical to the loop path.
func TestAdmitBatchPolicyVerdicts(t *testing.T) {
	c, _ := testController(t, 0.3)
	tb, err := policy.NewTokenBucket(policy.BucketConfig{Rate: 1e-3, Burst: 2},
		map[string]policy.BucketConfig{"vip": {Rate: 1e-3, Burst: 100}})
	if err != nil {
		t.Fatal(err)
	}
	var now int64 = int64(time.Hour)
	tb.Clock = func() int64 { return now }
	c.SetPolicy(tb)

	items := []BatchItem{
		{Class: "voice", Tenant: "a", Src: 0, Dst: 2}, // default bucket token 1
		{Class: "voice", Tenant: "b", Src: 0, Dst: 2}, // default bucket token 2
		{Class: "voice", Tenant: "c", Src: 0, Dst: 2}, // default bucket empty
		{Class: "voice", Tenant: "vip", Src: 0, Dst: 2},
		{Class: "voice", Tenant: "vip", Src: 0, Dst: 2},
	}
	res := c.AdmitBatch(items, nil)
	for i, wantErr := range []error{nil, nil, ErrPolicyRate, nil, nil} {
		if !errors.Is(res[i].Err, wantErr) {
			t.Errorf("item %d: err %v, want %v", i, res[i].Err, wantErr)
		}
	}
	if st := c.Stats(); st.RejectedPolicy != 1 || st.Admitted != 4 {
		t.Fatalf("stats %+v: want 4 admitted, 1 policy-rejected", st)
	}
}
