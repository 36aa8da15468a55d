package routing

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// exhaustive is the lookahead's reference for one pair: every
// candidate's verdict and solved slack, the feasible candidate with the
// largest slack (ties to the lowest index, -1 if none), and its
// converged vector.
type exhaustive struct {
	ok    []bool
	slack []float64
	best  int
	d     []float64
}

// solveAll fills w by solving every candidate of the current pair.
func (w *exhaustive) solveAll(r *evalRun) error {
	w.ok, w.slack, w.best = w.ok[:0], w.slack[:0], -1
	for ci := range r.cands {
		d, slack, ok, err := r.evalCandidate(ci)
		if err != nil {
			return err
		}
		w.ok, w.slack = append(w.ok, ok), append(w.slack, slack)
		if ok && (w.best < 0 || slack > w.slack[w.best]) {
			w.best, w.d = ci, append(w.d[:0], d...)
		}
	}
	return nil
}

// TestPickMatchesExhaustive runs the lookahead pair by pair over the
// golden topology × α cases, with both candidate generators. At every
// pair the bounded pick must choose the exhaustive argmax's winner with
// a bit-equal converged vector (the next base), and every feasible
// candidate's solved slack must lie at or below the bound pick ranked
// it by.
func TestPickMatchesExhaustive(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden cases are pinned on amd64")
	}
	if raceEnabled {
		t.Skip("single-goroutine reference solves; the race detector would only slow them")
	}
	cls := traffic.Voice()
	for _, spec := range []string{"mci", "nsfnet", "grid:5x5", "ring:8", "random:20:12:1", "random:30:20:2"} {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := delay.NewModel(net)
		for _, alpha := range []float64{0.2, 0.3, 0.4, 0.5} {
			for _, delayWeighted := range []bool{true, false} {
				label := fmt.Sprintf("%s α=%.1f delay-weighted=%v", spec, alpha, delayWeighted)
				pickMatchesExhaustive(t, label, m, Request{Class: cls, Alpha: alpha}, delayWeighted)
			}
		}
	}
}

func pickMatchesExhaustive(t *testing.T, label string, m *delay.Model, req Request, delayWeighted bool) {
	t.Helper()
	net := m.Network()
	set := routes.NewSet(net)
	base := make([]float64, net.NumServers())
	run := newEvalRun(NewEngine(), m, req, set, base)
	h := Heuristic{}
	var want exhaustive
	for _, p := range orderPairs(net.RouterGraph(), net.Pairs(), false) {
		if err := run.buildCandidates(p, h.k(), h.slack(), delayWeighted, true); err != nil {
			t.Fatal(err)
		}
		if err := want.solveAll(run); err != nil {
			t.Fatal(err)
		}
		got, err := run.pickLookahead()
		if err != nil {
			t.Fatal(err)
		}
		for ci, ok := range want.ok {
			if ok && want.slack[ci] > run.bounds[ci] {
				t.Fatalf("%s pair %v: candidate %d solved slack %.17g above its bound %.17g", label, p, ci, want.slack[ci], run.bounds[ci])
			}
		}
		if got != want.best {
			t.Fatalf("%s pair %v: pick chose %d, exhaustive argmax %d", label, p, got, want.best)
		}
		if got < 0 {
			return
		}
		for s, v := range run.best {
			if math.Float64bits(v) != math.Float64bits(want.d[s]) {
				t.Fatalf("%s pair %v: server %d base %.17g, exhaustive %.17g", label, p, s, v, want.d[s])
			}
		}
		if err := set.Add(run.cands[got].route); err != nil {
			t.Fatal(err)
		}
		copy(base, run.best)
	}
}
