package delay_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ubac/internal/config"
	"ubac/internal/delay"
	"ubac/internal/graph"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// multiClassFF selects F-F's configuration: voice at α 0.15 over 1.5 Mb/s
// video at α 0.20, every MCI pair, routed class by class.
func multiClassFF(tb testing.TB) (*delay.Model, []delay.ClassInput) {
	tb.Helper()
	video := traffic.Class{
		Name:     "video",
		Bucket:   traffic.LeakyBucket{Burst: 15e3, Rate: 1.5e6},
		Deadline: 0.4,
		Priority: 1,
	}
	m := delay.NewModel(topology.MCI())
	res, err := config.New(m).SelectMultiClass([]config.ClassSpec{
		{Class: traffic.Voice(), Alpha: 0.15},
		{Class: video, Alpha: 0.20},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m, res.Inputs
}

// curveServerN is the model's N for server s, from the network alone.
func curveServerN(m *delay.Model, s int) int {
	net := m.Network()
	n := net.MaxDegree()
	if m.NMode == delay.PerServerFanIn {
		tail, _, _ := net.Server(s)
		n = net.Degree(tail)
	}
	return max(n, 2)
}

// curveStep is the per-server Equation (24) step built from the oracle:
// every higher class's aggregate piece shifted by δ, beside class i's
// own, summed by BruteBacklog, iterated on δ. ok is false where the step
// fails (unstable, diverging or not converging).
func curveStep(m *delay.Model, inputs []delay.ClassInput, results []*delay.Result, i, s int) (d float64, ok bool) {
	c := m.Network().ServerCapacity(s)
	n := curveServerN(m, s)
	pieces := make([]delay.Piece, i+1)
	for l := range pieces {
		b := inputs[l].Class.Bucket
		pieces[l] = delay.AggregatePiece(inputs[l].Alpha, b.Burst, b.Rate, n, c, results[l].Y[s])
	}
	if i == 0 {
		backlog, ok := delay.BruteBacklog(pieces, c)
		return backlog / c, ok
	}
	shifted := make([]delay.Piece, i+1)
	shifted[i] = pieces[i]
	delta := 0.0
	for it := 0; it < delay.DeltaMaxIter; it++ {
		for l := 0; l < i; l++ {
			shifted[l] = pieces[l].Shift(delta)
		}
		backlog, ok := delay.BruteBacklog(shifted, c)
		nd := backlog / c
		if !ok || nd > m.DivergeCap {
			return 0, false
		}
		if math.Abs(nd-delta) <= m.Tol*math.Max(1, nd) {
			return nd, true
		}
		delta = nd
	}
	return 0, false
}

// solveMultiClassCurves is SolveMultiClass's joint iteration over
// curveStep: the reference the kernel's step is checked against.
func solveMultiClassCurves(m *delay.Model, inputs []delay.ClassInput) []*delay.Result {
	nsrv := m.Network().NumServers()
	results := make([]*delay.Result, len(inputs))
	for i := range results {
		results[i] = &delay.Result{D: make([]float64, nsrv), Y: make([]float64, nsrv)}
	}
	next := make([]float64, nsrv)
	for iter := 1; iter <= m.MaxIter; iter++ {
		worstChange, worstD := 0.0, 0.0
		for i, in := range inputs {
			res := results[i]
			res.Iterations = iter
			in.Routes.ComputeY(res.D, res.Y)
			for s := 0; s < nsrv; s++ {
				d, ok := curveStep(m, inputs, results, i, s)
				if !ok {
					return results
				}
				next[s] = d
				worstChange = math.Max(worstChange, math.Abs(d-res.D[s]))
				worstD = math.Max(worstD, d)
			}
			copy(res.D, next)
		}
		if worstD > m.DivergeCap {
			return results
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			for i, in := range inputs {
				results[i].Converged = true
				in.Routes.ComputeY(results[i].D, results[i].Y)
			}
			return results
		}
	}
	return results
}

// matchCurves solves inputs with SolveMultiClass and with the oracle's
// step and asserts the same verdict, the same iteration count, and
// per-server delays within 1e-12 relative. It returns the largest
// relative difference.
func matchCurves(t *testing.T, label string, m *delay.Model, inputs []delay.ClassInput) (converged bool, worst float64) {
	t.Helper()
	got, err := m.SolveMultiClass(inputs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := solveMultiClassCurves(m, inputs)
	for i := range inputs {
		g, w := got[i], want[i]
		if g.Converged != w.Converged || g.Iterations != w.Iterations {
			t.Fatalf("%s class %d: converged=%v after %d, oracle step converged=%v after %d",
				label, i, g.Converged, g.Iterations, w.Converged, w.Iterations)
		}
		if !w.Converged {
			continue
		}
		for s := range w.D {
			diff := math.Abs(g.D[s]-w.D[s]) / math.Max(w.D[s], math.SmallestNonzeroFloat64)
			if diff > 1e-12 {
				t.Fatalf("%s class %d server %d: D %.17g, oracle step %.17g", label, i, s, g.D[s], w.D[s])
			}
			worst = math.Max(worst, diff)
		}
	}
	return got[0].Converged, worst
}

// randomClassInputs draws 2–3 classes in priority order, each with its
// own leaky bucket, a random share of a total α in (0.05, 0.95), and
// routes for a random subset of pairs over one of their three shortest
// paths.
func randomClassInputs(t *testing.T, net *topology.Network, rng *rand.Rand) []delay.ClassInput {
	t.Helper()
	rg := net.RouterGraph()
	pairs := net.Pairs()
	k := 2 + rng.Intn(2)
	total := 0.05 + 0.9*rng.Float64()
	share := make([]float64, k)
	sum := 0.0
	for i := range share {
		share[i] = 0.1 + rng.Float64()
		sum += share[i]
	}
	inputs := make([]delay.ClassInput, k)
	for i := range inputs {
		cls := traffic.Class{
			Name:     fmt.Sprintf("c%d", i),
			Bucket:   traffic.LeakyBucket{Burst: 500 + 2e4*rng.Float64(), Rate: 16e3 + 2e6*rng.Float64()},
			Deadline: 1,
			Priority: i,
		}
		set := routes.NewSet(net)
		for _, p := range pairs {
			if rng.Intn(4) != 0 {
				continue
			}
			paths, err := graph.NewKSPSolver(rg).Paths(p[0], p[1], 3)
			if err != nil {
				t.Fatal(err)
			}
			r, err := routes.FromRouterPath(net, cls.Name, paths[rng.Intn(len(paths))])
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		inputs[i] = delay.ClassInput{Class: cls, Alpha: total * share[i] / sum, Routes: set}
	}
	return inputs
}

// The multi-class step must reproduce the one built on the oracle: on
// F-F and on random 2–3-class mixes over several topologies, the same
// verdicts and iteration counts, and per-server delays within 1e-12
// relative.
func TestMultiClassMatchesCurveStep(t *testing.T) {
	m, inputs := multiClassFF(t)
	if ok, worst := matchCurves(t, "F-F", m, inputs); !ok {
		t.Fatal("F-F did not converge")
	} else {
		t.Logf("F-F: worst relative difference %.3g", worst)
	}
	rng := rand.New(rand.NewSource(41))
	converged, worst := 0, 0.0
	for _, spec := range []string{"mci", "nsfnet", "ring:8", "grid:4x4", "random:12:6:1", "random:16:8:3"} {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			m := delay.NewModel(net)
			// The oracle's step is slow near the stability edge.
			m.MaxIter, m.DivergeCap = 40, 1
			if trial%2 == 1 {
				m.NMode = delay.PerServerFanIn
			}
			ok, w := matchCurves(t, fmt.Sprintf("%s/%d", spec, trial), m, randomClassInputs(t, net, rng))
			if ok {
				converged++
			}
			worst = math.Max(worst, w)
		}
	}
	if converged < 20 || converged > 50 {
		t.Fatalf("%d of 60 random mixes converged; the draw should mix both verdicts", converged)
	}
	t.Logf("%d of 60 random mixes converged; worst relative difference %.3g", converged, worst)
}

// The multi-class step allocates nothing per iteration: a solve cut at
// MaxIter 2 (or later) allocates exactly what the converged solve does.
// The cut bounds the joint iteration only, so a cut solve runs exactly
// MaxIter joint iterations.
func TestSolveMultiClassAllocsIndependentOfIterations(t *testing.T) {
	m, inputs := multiClassFF(t)
	var res []*delay.Result
	allocs := func(maxIter int) (float64, int) {
		m.MaxIter = maxIter
		n := testing.AllocsPerRun(3, func() {
			var err error
			if res, err = m.SolveMultiClass(inputs); err != nil {
				t.Fatal(err)
			}
		})
		return n, res[0].Iterations
	}
	full, fullIters := allocs(delay.NewModel(m.Network()).MaxIter)
	for _, cut := range []int{2, 6} {
		n, iters := allocs(cut)
		if iters >= fullIters {
			t.Fatalf("MaxIter %d: %d iterations, the converged solve only %d", cut, iters, fullIters)
		}
		for i, r := range res {
			if r.Iterations != cut {
				t.Fatalf("MaxIter %d: class %d stopped after %d joint iterations", cut, i, r.Iterations)
			}
		}
		if n != full {
			t.Fatalf("allocations depend on iterations: %v at MaxIter %d (%d iterations), %v converged (%d)",
				n, cut, iters, full, fullIters)
		}
	}
	t.Logf("%v allocations per solve, converged after %d iterations", full, fullIters)
}

// BenchmarkSolveMultiClassFF times one joint Equation (24) solve of F-F's
// selected routes.
func BenchmarkSolveMultiClassFF(b *testing.B) {
	m, inputs := multiClassFF(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.SolveMultiClass(inputs)
		if err != nil || !res[1].Converged {
			b.Fatalf("solve failed: %v", err)
		}
	}
}
