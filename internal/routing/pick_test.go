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

// exhaustiveArgmax is the lookahead's reference: solve every candidate
// and keep the feasible one with the largest slack, ties to the lowest
// index (-1 if none is feasible).
func exhaustiveArgmax(r *evalRun) int {
	r.prepare(len(r.cands))
	best := -1
	for ci := range r.cands {
		r.evalCandidate(ci, r.scratch)
		if r.outs[ci].ok && (best < 0 || r.outs[ci].slack > r.outs[best].slack) {
			best = ci
		}
	}
	return best
}

// TestPickMatchesExhaustive runs the lookahead pair by pair over the
// golden topology × α cases, with both candidate generators, at one and
// four workers. At every pair the bounded pick must choose the
// exhaustive argmax's winner with a bit-equal converged vector (the next
// base), and every feasible candidate's solved slack must lie at or
// below the bound pick ranked it by.
func TestPickMatchesExhaustive(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden cases are pinned on amd64")
	}
	if raceEnabled {
		t.Skip("sequential reference solves; TestEngineParallelMatchesSequential covers the pool under -race")
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
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s α=%.1f delay-weighted=%v workers=%d", spec, alpha, delayWeighted, workers)
					pickMatchesExhaustive(t, label, m, Request{Class: cls, Alpha: alpha}, delayWeighted, workers)
				}
			}
		}
	}
}

func pickMatchesExhaustive(t *testing.T, label string, m *delay.Model, req Request, delayWeighted bool, workers int) {
	t.Helper()
	eng := NewEngine(workers)
	defer eng.Close()
	net := m.Network()
	set := routes.NewSet(net)
	base := make([]float64, net.NumServers())
	run := newEvalRun(eng, m, req, set, base)
	h := Heuristic{}
	var want struct {
		ok    []bool
		slack []float64
		d     []float64
	}
	for _, p := range orderPairs(net.RouterGraph(), net.Pairs(), false) {
		if err := run.buildCandidates(p, h.k(), h.slack(), delayWeighted, true); err != nil {
			t.Fatal(err)
		}
		wantIdx := exhaustiveArgmax(run)
		want.ok, want.slack = want.ok[:0], want.slack[:0]
		for _, o := range run.outs {
			want.ok = append(want.ok, o.ok)
			want.slack = append(want.slack, o.slack)
		}
		if wantIdx >= 0 {
			want.d = append(want.d[:0], run.outs[wantIdx].d...)
		}
		got, err := run.pickLookahead()
		if err != nil {
			t.Fatal(err)
		}
		for ci := range want.ok {
			if want.ok[ci] && want.slack[ci] > run.bounds[ci] {
				t.Fatalf("%s pair %v: candidate %d solved slack %.17g above its bound %.17g", label, p, ci, want.slack[ci], run.bounds[ci])
			}
		}
		if got != wantIdx {
			t.Fatalf("%s pair %v: pick chose %d, exhaustive argmax %d", label, p, got, wantIdx)
		}
		if got < 0 {
			return
		}
		for s, v := range run.outs[got].d {
			if math.Float64bits(v) != math.Float64bits(want.d[s]) {
				t.Fatalf("%s pair %v: server %d base %.17g, exhaustive %.17g", label, p, s, v, want.d[s])
			}
		}
		if err := set.Add(run.cands[got].route); err != nil {
			t.Fatal(err)
		}
		copy(base, run.outs[got].d)
	}
}
