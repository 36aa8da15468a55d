package routing

import (
	"math"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

func TestBacktrackingBasics(t *testing.T) {
	if (Backtracking{}).Name() != "backtracking" {
		t.Error("name wrong")
	}
	net := topology.MCI()
	m := model(t, net)
	set, rep, err := Backtracking{}.Select(m, voiceReq(0.30))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || set.Len() != 342 {
		t.Fatalf("backtracking failed at the lower bound: %+v", rep)
	}
	if rep.Backtracks != 0 {
		t.Errorf("needed %d backtracks where greedy succeeds", rep.Backtracks)
	}
	if rep.TotalHops == 0 || rep.WorstDelay <= 0 {
		t.Error("report not filled")
	}
}

func TestBacktrackingValidation(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	if _, _, err := (Backtracking{}).Select(m, Request{Class: traffic.Voice(), Alpha: 0}); err == nil {
		t.Error("bad alpha accepted")
	}
}

// Wherever the greedy cheap-mode heuristic succeeds, backtracking (whose
// first descent is the same greedy) must succeed too.
func TestBacktrackingDominatesGreedy(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	for _, alpha := range []float64{0.32, 0.38, 0.44} {
		_, greedy, err := (Heuristic{Mode: Cheap}).Select(m, voiceReq(alpha))
		if err != nil {
			t.Fatal(err)
		}
		_, bt, err := (Backtracking{}).Select(m, voiceReq(alpha))
		if err != nil {
			t.Fatal(err)
		}
		if greedy.Safe && !bt.Safe {
			t.Errorf("alpha=%.2f: greedy safe but backtracking failed", alpha)
		}
	}
}

// The cheap greedy is non-monotone on MCI: it fails at alpha=0.43-0.45
// yet succeeds at 0.46. Backtracking must repair the failure. The repair
// undoes routes (RemoveLast trims the set's prefix forest), so the
// selection's final delay vector, read through its WorstDelay, must
// equal a fresh solve of the returned set bit for bit, and that solve
// must equal one of the same routes added to a new set.
func TestBacktrackingRepairsCheapFailure(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	_, greedy, err := (Heuristic{Mode: Cheap}).Select(m, voiceReq(0.43))
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Safe {
		t.Skip("cheap heuristic no longer fails at 0.43 on this topology")
	}
	set, bt, err := (Backtracking{}).Select(m, voiceReq(0.43))
	if err != nil {
		t.Fatal(err)
	}
	if !bt.Safe {
		t.Fatalf("backtracking did not repair the greedy failure: %+v", bt)
	}
	if bt.Backtracks == 0 {
		t.Fatal("repair without backtracking recorded; the case no longer exercises RemoveLast")
	}
	t.Logf("repaired with %d backtracks, %d candidates", bt.Backtracks, bt.CandidatesTried)

	rebuilt := routes.NewSet(net)
	for i := 0; i < set.Len(); i++ {
		if err := rebuilt.Add(set.Route(i)); err != nil {
			t.Fatal(err)
		}
	}
	solve := func(s *routes.Set) *delay.Result {
		res, err := m.SolveTwoClass(delay.ClassInput{Class: traffic.Voice(), Alpha: 0.43, Routes: s})
		if err != nil || !res.Converged {
			t.Fatalf("solve: converged=%v err=%v", res != nil && res.Converged, err)
		}
		return res
	}
	got, want := solve(set), solve(rebuilt)
	deadline := traffic.Voice().Deadline
	if slack, _ := set.MinSlackExtra(got.D, deadline, m.FixedPerHop, nil); math.Float64bits(deadline-slack) != math.Float64bits(bt.WorstDelay) {
		t.Fatalf("WorstDelay %.17g, fresh solve %.17g", bt.WorstDelay, deadline-slack)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, rebuilt set %d", got.Iterations, want.Iterations)
	}
	for s := range want.D {
		if math.Float64bits(got.D[s]) != math.Float64bits(want.D[s]) || math.Float64bits(got.Y[s]) != math.Float64bits(want.Y[s]) {
			t.Fatalf("server %d D=%.17g Y=%.17g, rebuilt set D=%.17g Y=%.17g", s, got.D[s], got.Y[s], want.D[s], want.Y[s])
		}
	}
}

func TestBacktrackingBudgetExhaustion(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	_, rep, err := Backtracking{MaxBacktracks: 3}.Select(m, voiceReq(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Fatal("alpha=0.9 reported safe")
	}
	if rep.FailedPair == nil {
		t.Error("no failed pair recorded")
	}
	if rep.Backtracks > 3 {
		t.Errorf("budget exceeded: %d", rep.Backtracks)
	}
}

func TestBacktrackingColdReverify(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	set, rep, err := Backtracking{}.Select(m, voiceReq(0.40))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Skip("0.40 infeasible")
	}
	res, err := m.SolveTwoClass(delay.ClassInput{Class: traffic.Voice(), Alpha: 0.40, Routes: set})
	if err != nil || !res.Converged {
		t.Fatalf("cold solve: %v", err)
	}
	worst, _ := set.MaxRouteDelay(res.D)
	if worst > traffic.Voice().Deadline {
		t.Errorf("cold re-verify worst %g exceeds deadline", worst)
	}
}
