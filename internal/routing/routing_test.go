package routing

import (
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

func voiceReq(alpha float64) Request {
	return Request{Class: traffic.Voice(), Alpha: alpha}
}

func model(t *testing.T, net *topology.Network) *delay.Model {
	t.Helper()
	return delay.NewModel(net)
}

func TestResolvePairsValidation(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := model(t, net)
	bad := []Request{
		{Class: traffic.Class{}, Alpha: 0.3},
		{Class: traffic.Voice(), Alpha: 0},
		{Class: traffic.Voice(), Alpha: 1.2},
		{Class: traffic.Voice(), Alpha: 0.3, Pairs: [][2]int{{0, 0}}},
		{Class: traffic.Voice(), Alpha: 0.3, Pairs: [][2]int{{0, 99}}},
		{Class: traffic.Voice(), Alpha: 0.3, Pairs: [][2]int{{-1, 1}}},
	}
	for i, req := range bad {
		if _, _, err := (SP{}).Select(m, req); err == nil {
			t.Errorf("SP accepted bad request %d", i)
		}
		if _, _, err := (Heuristic{}).Select(m, req); err == nil {
			t.Errorf("Heuristic accepted bad request %d", i)
		}
	}
}

func TestSPRoutesAllPairs(t *testing.T) {
	net, err := topology.Grid(3, 3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := model(t, net)
	set, rep, err := SP{}.Select(m, voiceReq(0.1))
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 9 * 8
	if set.Len() != wantPairs || rep.PairsRouted != wantPairs || rep.PairsTotal != wantPairs {
		t.Errorf("routed %d/%d, set %d, want %d", rep.PairsRouted, rep.PairsTotal, set.Len(), wantPairs)
	}
	// Every route must be a shortest path.
	rg := net.RouterGraph()
	for i := 0; i < set.Len(); i++ {
		r := set.Route(i)
		if r.Hops() != rg.Distance(r.Src, r.Dst) {
			t.Errorf("route %d->%d has %d hops, shortest is %d", r.Src, r.Dst, r.Hops(), rg.Distance(r.Src, r.Dst))
		}
	}
	if !rep.Safe {
		t.Error("low alpha SP selection should be safe")
	}
	if rep.WorstDelay <= 0 || rep.WorstDelay > traffic.Voice().Deadline {
		t.Errorf("worst delay = %g", rep.WorstDelay)
	}
	if rep.Selector != "sp" || (SP{}).Name() != "sp" {
		t.Error("selector naming wrong")
	}
}

func TestSPUnsafeAtHighAlpha(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	_, rep, err := SP{}.Select(m, voiceReq(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Error("alpha=0.9 SP selection reported safe")
	}
}

func TestHeuristicRoutesAllPairsSafely(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	set, rep, err := Heuristic{}.Select(m, voiceReq(0.30))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("heuristic failed at the Theorem 4 lower bound: %+v", rep)
	}
	if set.Len() != 342 || rep.PairsRouted != 342 {
		t.Errorf("routed %d, want 342", rep.PairsRouted)
	}
	if rep.WorstDelay > traffic.Voice().Deadline {
		t.Errorf("worst delay %g exceeds deadline", rep.WorstDelay)
	}
	// Every pair appears exactly once.
	seen := make(map[[2]int]bool)
	for i := 0; i < set.Len(); i++ {
		r := set.Route(i)
		key := [2]int{r.Src, r.Dst}
		if seen[key] {
			t.Errorf("pair %v routed twice", key)
		}
		seen[key] = true
	}
	if (Heuristic{}).Name() != "heuristic" {
		t.Error("name wrong")
	}
}

func TestHeuristicBeatsOrEqualsSPInFeasibility(t *testing.T) {
	// At an alpha where SP fails on MCI, the heuristic should still
	// succeed (this is the paper's core experimental claim; the exact
	// crossover is asserted in the Table 1 integration test).
	net := topology.MCI()
	m := model(t, net)
	alpha := 0.36
	_, spRep, err := SP{}.Select(m, voiceReq(alpha))
	if err != nil {
		t.Fatal(err)
	}
	_, hRep, err := Heuristic{}.Select(m, voiceReq(alpha))
	if err != nil {
		t.Fatal(err)
	}
	if spRep.Safe && !hRep.Safe {
		t.Errorf("heuristic lost to SP at alpha=%g", alpha)
	}
	if !hRep.Safe {
		t.Errorf("heuristic failed at alpha=%g (paper achieves 0.45)", alpha)
	}
}

func TestHeuristicFailureReportsPair(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	_, rep, err := Heuristic{}.Select(m, voiceReq(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Fatal("alpha=0.9 reported safe")
	}
	if rep.FailedPair == nil {
		t.Error("failure did not identify the failed pair")
	}
	if rep.PairsRouted >= rep.PairsTotal {
		t.Error("failure with all pairs routed")
	}
}

func TestHeuristicDeterministic(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	s1, r1, err := Heuristic{}.Select(m, voiceReq(0.32))
	if err != nil {
		t.Fatal(err)
	}
	s2, r2, err := Heuristic{}.Select(m, voiceReq(0.32))
	if err != nil {
		t.Fatal(err)
	}
	if r1.WorstDelay != r2.WorstDelay || r1.TotalHops != r2.TotalHops || s1.Len() != s2.Len() {
		t.Fatal("heuristic is not deterministic")
	}
	for i := 0; i < s1.Len(); i++ {
		a, b := s1.Route(i), s2.Route(i)
		if a.Src != b.Src || a.Dst != b.Dst || a.Hops() != b.Hops() {
			t.Fatalf("route %d differs between runs", i)
		}
	}
}

func TestHeuristicSubsetOfPairs(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	chi, _ := net.RouterByName("Chicago")
	mia, _ := net.RouterByName("Miami")
	sea, _ := net.RouterByName("Seattle")
	req := voiceReq(0.5)
	req.Pairs = [][2]int{{chi, mia}, {sea, mia}, {mia, chi}}
	set, rep, err := Heuristic{}.Select(m, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || set.Len() != 3 {
		t.Errorf("small selection failed: %+v", rep)
	}
}

func TestHeuristicKnobs(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	variants := []Heuristic{
		{},
		{K: 4, LengthSlack: 1},
		{IgnoreCycles: true},
		{IgnoreOrder: true},
	}
	for i, h := range variants {
		_, rep, err := h.Select(m, voiceReq(0.30))
		if err != nil {
			t.Errorf("variant %d: %v", i, err)
			continue
		}
		if !rep.Safe {
			t.Errorf("variant %d unsafe at the lower bound", i)
		}
	}
}

// The Theorem 4 lower bound guarantees that SP itself is safe at or
// below it: verify on the actual MCI topology.
func TestSPSafeAtLowerBound(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	_, rep, err := SP{}.Select(m, voiceReq(0.299))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Error("SP unsafe below the Theorem 4 lower bound")
	}
}

func TestHeuristicRouteSetsAreValid(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	set, rep, err := Heuristic{}.Select(m, voiceReq(0.40))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Skip("alpha=0.40 infeasible on this reconstruction")
	}
	for i := 0; i < set.Len(); i++ {
		if err := set.Route(i).Validate(net); err != nil {
			t.Errorf("route %d invalid: %v", i, err)
		}
	}
	// The accepted set must re-verify from scratch.
	res, err := m.SolveTwoClass(delay.ClassInput{Class: traffic.Voice(), Alpha: 0.40, Routes: set})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("accepted set diverges on cold solve")
	}
	worst, _ := set.MaxRouteDelay(res.D)
	if worst > traffic.Voice().Deadline {
		t.Errorf("cold re-verify worst %g exceeds deadline", worst)
	}
}

func TestRemoveLastUsedByRollback(t *testing.T) {
	// RemoveLast after Add must restore CrossCounts exactly.
	net, err := topology.Line(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	set := routes.NewSet(net)
	r1, err := routes.FromRouterPath(net, "v", []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Add(r1); err != nil {
		t.Fatal(err)
	}
	before := make([]int, net.NumServers())
	for s := range before {
		before[s] = set.CrossCount(s)
	}
	r2, err := routes.FromRouterPath(net, "v", []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Add(r2); err != nil {
		t.Fatal(err)
	}
	set.RemoveLast()
	if set.Len() != 1 {
		t.Fatalf("len = %d", set.Len())
	}
	for s := range before {
		if set.CrossCount(s) != before[s] {
			t.Errorf("server %d cross count %d, want %d", s, set.CrossCount(s), before[s])
		}
	}
	set.RemoveLast()
	set.RemoveLast() // extra call is a no-op
	if set.Len() != 0 {
		t.Error("set not empty")
	}
}

func BenchmarkSPSelectMCI(b *testing.B) {
	net := topology.MCI()
	m := delay.NewModel(net)
	for i := 0; i < b.N; i++ {
		if _, _, err := (SP{}).Select(m, voiceReq(0.3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicSelectMCI(b *testing.B) {
	net := topology.MCI()
	m := delay.NewModel(net)
	for i := 0; i < b.N; i++ {
		if _, _, err := (Heuristic{}).Select(m, voiceReq(0.3)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDelayWeightedHeuristic(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	for _, alpha := range []float64{0.30, 0.40} {
		set, rep, err := (Heuristic{DelayWeighted: true}).Select(m, voiceReq(alpha))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Safe {
			t.Errorf("delay-weighted heuristic unsafe at alpha=%.2f", alpha)
			continue
		}
		if set.Len() != 342 {
			t.Errorf("routed %d pairs", set.Len())
		}
		// Re-verify cold.
		res, err := m.SolveTwoClass(delay.ClassInput{Class: traffic.Voice(), Alpha: alpha, Routes: set})
		if err != nil || !res.Converged {
			t.Fatalf("cold solve: %v", err)
		}
		worst, _ := set.MaxRouteDelay(res.D)
		if !delay.MeetsDeadline(worst, traffic.Voice().Deadline) {
			t.Errorf("cold re-verify worst %g exceeds deadline", worst)
		}
	}
}

func TestDelayWeightedDeterministic(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	a, ra, err := (Heuristic{DelayWeighted: true}).Select(m, voiceReq(0.35))
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := (Heuristic{DelayWeighted: true}).Select(m, voiceReq(0.35))
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalHops != rb.TotalHops || a.Len() != b.Len() {
		t.Fatal("delay-weighted selection not deterministic")
	}
}
