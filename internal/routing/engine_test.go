package routing

import (
	"math/rand"
	"sync"
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

// A persistent shared engine (a warm memo) must not change any
// selection relative to fresh per-Select engines, across repeated
// selections and different selectors sharing it at once (the Engine is
// documented safe for concurrent use; -race checks the memo's lock).
func TestEngineSharedAcrossSelections(t *testing.T) {
	net, err := topology.Parse("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	cls := traffic.Voice()
	pairs := randomPairs(net, 12, 7)
	eng := NewEngine()
	cases := []struct {
		name   string
		shared Selector
		fresh  Selector
	}{
		{"heuristic", Heuristic{Engine: eng}, Heuristic{}},
		{"cheap", Heuristic{Mode: Cheap, Engine: eng}, Heuristic{Mode: Cheap}},
		{"backtracking", Backtracking{Engine: eng}, Backtracking{}},
	}
	type result struct {
		set *routes.Set
		rep *Report
		err error
	}
	for _, alpha := range []float64{0.25, 0.45} {
		req := Request{Class: cls, Alpha: alpha, Pairs: pairs}
		for round := 0; round < 2; round++ { // round 2 hits the memo
			got := make([]result, len(cases))
			var wg sync.WaitGroup
			for i, tc := range cases {
				wg.Add(1)
				go func() {
					defer wg.Done()
					set, rep, err := tc.shared.Select(m, req)
					got[i] = result{set, rep, err}
				}()
			}
			wg.Wait()
			for i, tc := range cases {
				if got[i].err != nil {
					t.Fatal(got[i].err)
				}
				wantSet, wantRep, err := tc.fresh.Select(m, req)
				if err != nil {
					t.Fatal(err)
				}
				sameReport(t, tc.name, got[i].rep, wantRep)
				sameRouteSets(t, tc.name, got[i].set, wantSet)
			}
		}
	}
}

// TestEngineParallelMatchesSequential is the determinism property of the
// shared candidate memo: every selector, run in parallel with the others
// over one Engine, must reproduce its own sequential selection on a
// private engine exactly — same route set, same report down to a
// bit-identical WorstDelay — on random topologies, in both safe and
// failing regimes, and on a backtracking search that undoes routes.
func TestEngineParallelMatchesSequential(t *testing.T) {
	cls := traffic.Voice()
	selectors := []struct {
		name string
		mk   func(eng *Engine) Selector
	}{
		{"lookahead", func(eng *Engine) Selector { return Heuristic{Engine: eng} }},
		{"delay-weighted", func(eng *Engine) Selector { return Heuristic{DelayWeighted: true, Engine: eng} }},
		{"cheap", func(eng *Engine) Selector { return Heuristic{Mode: Cheap, Engine: eng} }},
		{"backtracking", func(eng *Engine) Selector { return Backtracking{MaxBacktracks: 40, Engine: eng} }},
		{"portfolio", func(eng *Engine) Selector { return Portfolio{Engine: eng} }},
	}
	type result struct {
		set *routes.Set
		rep *Report
		err error
	}
	// check runs every selector at once over one fresh shared engine and
	// compares each with a sequential run on a private engine.
	check := func(label string, m *delay.Model, req Request) []*Report {
		eng := NewEngine()
		got := make([]result, len(selectors))
		var wg sync.WaitGroup
		for i, sc := range selectors {
			wg.Add(1)
			go func() {
				defer wg.Done()
				set, rep, err := sc.mk(eng).Select(m, req)
				got[i] = result{set, rep, err}
			}()
		}
		wg.Wait()
		reps := make([]*Report, len(selectors))
		for i, sc := range selectors {
			name := label + "/" + sc.name
			if got[i].err != nil {
				t.Fatalf("%s parallel: %v", name, got[i].err)
			}
			seqSet, seqRep, err := sc.mk(nil).Select(m, req)
			if err != nil {
				t.Fatalf("%s sequential: %v", name, err)
			}
			sameReport(t, name, got[i].rep, seqRep)
			sameRouteSets(t, name, got[i].set, seqSet)
			reps[i] = seqRep
		}
		return reps
	}
	for ti, spec := range []string{"grid:4x4", "grid:5x3", "nsfnet", "random:12:24:3"} {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		pairs := randomPairs(net, 10, int64(100+ti))
		m := delay.NewModel(net)
		for _, alpha := range []float64{0.30, 0.85} {
			check(spec, m, Request{Class: cls, Alpha: alpha, Pairs: pairs})
		}
	}

	// The cheap greedy fails on MCI at α 0.43 and backtracking repairs it
	// (TestBacktrackingRepairsCheapFailure), so this search really undoes
	// routes while the other selectors fill the shared memo.
	reps := check("mci", delay.NewModel(topology.MCI()), Request{Class: cls, Alpha: 0.43})
	if bt := reps[3]; bt.Backtracks == 0 || !bt.Safe {
		t.Fatalf("mci/backtracking: %d backtracks, safe=%v; the case no longer exercises RemoveLast", bt.Backtracks, bt.Safe)
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
