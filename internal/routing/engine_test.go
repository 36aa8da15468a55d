package routing

import (
	"math/rand"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// sameReport asserts every report field matches, bitwise for floats.
func sameReport(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Selector != want.Selector || got.Safe != want.Safe ||
		got.PairsRouted != want.PairsRouted || got.PairsTotal != want.PairsTotal ||
		got.TotalHops != want.TotalHops || got.CandidatesTried != want.CandidatesTried ||
		got.Backtracks != want.Backtracks {
		t.Fatalf("%s: report mismatch:\n got %+v\nwant %+v", label, got, want)
	}
	if got.WorstDelay != want.WorstDelay {
		t.Fatalf("%s: WorstDelay %.17g, want %.17g (not bit-identical)", label, got.WorstDelay, want.WorstDelay)
	}
	if (got.FailedPair == nil) != (want.FailedPair == nil) {
		t.Fatalf("%s: FailedPair %v, want %v", label, got.FailedPair, want.FailedPair)
	}
	if got.FailedPair != nil && *got.FailedPair != *want.FailedPair {
		t.Fatalf("%s: FailedPair %v, want %v", label, *got.FailedPair, *want.FailedPair)
	}
}

// sameRouteSets asserts both selections picked exactly the same routes
// in the same order.
func sameRouteSets(t *testing.T, label string, got, want *routes.Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d routes, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		a, b := got.Route(i), want.Route(i)
		if a.Src != b.Src || a.Dst != b.Dst || a.Class != b.Class || len(a.Servers) != len(b.Servers) {
			t.Fatalf("%s: route %d differs: %+v vs %+v", label, i, a, b)
		}
		for j := range a.Servers {
			if a.Servers[j] != b.Servers[j] {
				t.Fatalf("%s: route %d server %d differs", label, i, j)
			}
		}
	}
}

// randomPairs draws n distinct ordered pairs from the network's pair
// list with a fixed seed.
func randomPairs(net *topology.Network, n int, seed int64) [][2]int {
	all := net.Pairs()
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(all))
	if n > len(all) {
		n = len(all)
	}
	ps := make([][2]int, n)
	for i := 0; i < n; i++ {
		ps[i] = all[idx[i]]
	}
	return ps
}

// sameSolve re-solves both selections, the sequential one with the
// sequential sweep and the parallel one with the tree-sharded parallel
// sweep (Model.Workers 4), and requires bit-identical D and Y.
func sameSolve(t *testing.T, label string, net *topology.Network, cls traffic.Class, alpha float64, seqSet, parSet *routes.Set) {
	t.Helper()
	want, err := delay.NewModel(net).SolveTwoClass(delay.ClassInput{Class: cls, Alpha: alpha, Routes: seqSet})
	if err != nil {
		t.Fatal(err)
	}
	pm := delay.NewModel(net)
	pm.Workers = 4
	got, err := pm.SolveTwoClass(delay.ClassInput{Class: cls, Alpha: alpha, Routes: parSet})
	if err != nil {
		t.Fatal(err)
	}
	if got.Converged != want.Converged || got.Iterations != want.Iterations {
		t.Fatalf("%s: converged=%v after %d, want %v after %d", label, got.Converged, got.Iterations, want.Converged, want.Iterations)
	}
	if !want.Converged {
		return // D and Y are unspecified on divergence
	}
	for s := range want.D {
		if got.D[s] != want.D[s] || got.Y[s] != want.Y[s] {
			t.Fatalf("%s: server %d D=%.17g Y=%.17g, want D=%.17g Y=%.17g", label, s, got.D[s], got.Y[s], want.D[s], want.Y[s])
		}
	}
}

// TestEngineParallelMatchesSequential is the determinism property of the
// evaluation engine: for every selector, parallel candidate evaluation
// (workers=4, plus concurrent portfolio members) must reproduce the
// sequential selection exactly — same route set, same report down to
// bit-identical WorstDelay, and the same re-solved delay vector under
// the sequential and the parallel sweep — on random topologies, in both
// safe and failing regimes, and on a backtracking search that undoes
// routes (RemoveLast trims the set's prefix forest mid-selection).
func TestEngineParallelMatchesSequential(t *testing.T) {
	cls := traffic.Voice()
	selectors := []struct {
		name string
		mk   func(w int) Selector
	}{
		{"lookahead", func(w int) Selector { return Heuristic{Workers: w} }},
		{"delay-weighted", func(w int) Selector { return Heuristic{DelayWeighted: true, Workers: w} }},
		{"cheap", func(w int) Selector { return Heuristic{Mode: Cheap, Workers: w} }},
		{"backtracking", func(w int) Selector { return Backtracking{Workers: w, MaxBacktracks: 40} }},
		{"portfolio", func(w int) Selector { return Portfolio{Workers: w} }},
	}
	for ti, spec := range []string{"grid:4x4", "grid:5x3", "nsfnet", "random:12:24:3"} {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		pairs := randomPairs(net, 10, int64(100+ti))
		m := delay.NewModel(net)
		for _, alpha := range []float64{0.30, 0.85} {
			req := Request{Class: cls, Alpha: alpha, Pairs: pairs}
			for _, sc := range selectors {
				label := spec + "/" + sc.name
				seqSet, seqRep, err := sc.mk(1).Select(m, req)
				if err != nil {
					t.Fatalf("%s sequential: %v", label, err)
				}
				parSet, parRep, err := sc.mk(4).Select(m, req)
				if err != nil {
					t.Fatalf("%s parallel: %v", label, err)
				}
				sameReport(t, label, parRep, seqRep)
				sameRouteSets(t, label, parSet, seqSet)
				sameSolve(t, label, net, cls, alpha, seqSet, parSet)
			}
		}
	}

	// The cheap greedy fails on MCI at α 0.43 and backtracking repairs it
	// (TestBacktrackingRepairsCheapFailure), so this search really undoes
	// routes.
	net := topology.MCI()
	m := delay.NewModel(net)
	req := Request{Class: cls, Alpha: 0.43}
	seqSet, seqRep, err := Backtracking{Workers: 1}.Select(m, req)
	if err != nil {
		t.Fatal(err)
	}
	parSet, parRep, err := Backtracking{Workers: 4}.Select(m, req)
	if err != nil {
		t.Fatal(err)
	}
	if seqRep.Backtracks == 0 || !seqRep.Safe {
		t.Fatalf("mci/backtracking: %d backtracks, safe=%v; the case no longer exercises RemoveLast", seqRep.Backtracks, seqRep.Safe)
	}
	sameReport(t, "mci/backtracking", parRep, seqRep)
	sameRouteSets(t, "mci/backtracking", parSet, seqSet)
	sameSolve(t, "mci/backtracking", net, cls, 0.43, seqSet, parSet)
}

// A persistent shared engine — warm memo, long-lived workers — must not
// change any selection relative to fresh per-Select engines, across
// repeated selections and different selectors sharing it.
func TestEngineSharedAcrossSelections(t *testing.T) {
	net, err := topology.Parse("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	cls := traffic.Voice()
	pairs := randomPairs(net, 12, 7)
	eng := NewEngine(4)
	defer eng.Close()
	for _, alpha := range []float64{0.25, 0.45} {
		req := Request{Class: cls, Alpha: alpha, Pairs: pairs}
		for round := 0; round < 2; round++ { // round 2 hits the memo
			for _, tc := range []struct {
				name   string
				shared Selector
				fresh  Selector
			}{
				{"heuristic", Heuristic{Engine: eng}, Heuristic{}},
				{"cheap", Heuristic{Mode: Cheap, Engine: eng}, Heuristic{Mode: Cheap}},
				{"backtracking", Backtracking{Engine: eng}, Backtracking{}},
			} {
				gotSet, gotRep, err := tc.shared.Select(m, req)
				if err != nil {
					t.Fatal(err)
				}
				wantSet, wantRep, err := tc.fresh.Select(m, req)
				if err != nil {
					t.Fatal(err)
				}
				sameReport(t, tc.name, gotRep, wantRep)
				sameRouteSets(t, tc.name, gotSet, wantSet)
			}
		}
	}
}

// Selectors must emit one RouteSelect event per run when telemetry is
// active — and exactly one per portfolio member, never one for the
// portfolio wrapper itself.
func TestSelectEmitsRouteSelect(t *testing.T) {
	net, err := topology.Parse("grid:4x3")
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), nil)
	m.Sink = sink
	req := Request{Class: traffic.Voice(), Alpha: 0.3, Pairs: randomPairs(net, 6, 1)}
	if _, rep, err := (Heuristic{}).Select(m, req); err != nil || !rep.Safe {
		t.Fatalf("heuristic: rep=%+v err=%v", rep, err)
	}
	if got := sink.RouteSelectDuration.Count(); got != 1 {
		t.Fatalf("select events after heuristic = %d, want 1", got)
	}
	if sink.RouteSelectCandidates.Value() == 0 {
		t.Fatal("no candidate evaluations recorded")
	}
	before := sink.RouteSelectDuration.Count()
	if _, _, err := (Portfolio{}).Select(m, req); err != nil {
		t.Fatal(err)
	}
	// The first (safe) member emits one event; the wrapper adds none.
	if got := sink.RouteSelectDuration.Count() - before; got != 1 {
		t.Fatalf("select events from portfolio = %d, want 1", got)
	}
}

// Concurrent portfolio members cancel cleanly: the winning member's
// result is returned even while higher-indexed members are abandoned
// mid-selection, and ErrCanceled never escapes.
func TestPortfolioConcurrentCancellation(t *testing.T) {
	net := topology.MCI()
	m := delay.NewModel(net)
	req := Request{Class: traffic.Voice(), Alpha: 0.30}
	set, rep, err := (Portfolio{Workers: 4}).Select(m, req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("portfolio unsafe on MCI at alpha=0.30: %+v", rep)
	}
	if set.Len() != rep.PairsRouted {
		t.Fatalf("set has %d routes, report says %d", set.Len(), rep.PairsRouted)
	}
	// Must agree with the sequential portfolio exactly.
	wantSet, wantRep, err := (Portfolio{}).Select(m, req)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "portfolio-mci", rep, wantRep)
	sameRouteSets(t, "portfolio-mci", set, wantSet)
}
