package delay

import (
	"math"
	"math/rand"
	"testing"

	"ubac/internal/graph"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// scratchEqual asserts bit-identical results between the scratch solver
// and the allocating reference.
func scratchEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Converged != want.Converged || got.Iterations != want.Iterations {
		t.Fatalf("%s: converged=%v iters=%d, want converged=%v iters=%d",
			label, got.Converged, got.Iterations, want.Converged, want.Iterations)
	}
	for s := range want.D {
		if got.D[s] != want.D[s] {
			t.Fatalf("%s: D[%d] = %.17g, want %.17g (not bit-identical)", label, s, got.D[s], want.D[s])
		}
		if got.Y[s] != want.Y[s] {
			t.Fatalf("%s: Y[%d] = %.17g, want %.17g (not bit-identical)", label, s, got.Y[s], want.Y[s])
		}
	}
}

// fullSweep is the reference two-class driver: the Equation (14) sweep
// d ← Z(d) over every server, on fresh vectors, until convergence,
// divergence or the iteration cap. SolveTwoClassScratch must reproduce
// it bit for bit. Its inputs must be valid.
func fullSweep(m *Model, in ClassInput, extra *routes.Route, d0 []float64) *Result {
	nsrv := m.net.NumServers()
	burst, rho := in.Class.Bucket.Burst, in.Class.Bucket.Rate
	res := &Result{D: make([]float64, nsrv), Y: make([]float64, nsrv)}
	if d0 != nil {
		copy(res.D, d0)
	}
	next := make([]float64, nsrv)
	var buf []float64
	for iter := 1; iter <= m.MaxIter; iter++ {
		res.Iterations = iter
		in.Routes.ComputeYExtra(res.D, res.Y, extra, &buf)
		worstChange, worstD := 0.0, 0.0
		for s := 0; s < nsrv; s++ {
			next[s] = Gain(in.Alpha, rho, m.serverN(s)) * (burst + rho*res.Y[s])
			if ch := math.Abs(next[s] - res.D[s]); ch > worstChange {
				worstChange = ch
			}
			if next[s] > worstD {
				worstD = next[s]
			}
		}
		copy(res.D, next)
		if worstD > m.DivergeCap {
			return res
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			res.Converged = true
			in.Routes.ComputeYExtra(res.D, res.Y, extra, &buf)
			return res
		}
	}
	return res
}

// The scratch solver (cached gains, reused buffers, active-domain sweep)
// must be bit-identical to the full sweep across topologies, route
// sets, warm starts, phantom routes, and alphas spanning convergence,
// slow convergence, and divergence — including its iteration counts, so
// even the trajectory matches, not just the fixed point.
func TestSolveScratchMatchesExtra(t *testing.T) {
	specs := []string{"line:6", "ring:8", "grid:4x3", "nsfnet"}
	alphas := []float64{0.05, 0.30, 0.60, 0.90, 0.97}
	cls := traffic.Voice()
	for _, spec := range specs {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		rg := net.RouterGraph()
		rng := rand.New(rand.NewSource(11))
		set := routes.NewSet(net)
		var phantom *routes.Route
		// Grow a route set over random shortest paths; keep one route out
		// of the set as the phantom candidate.
		for trial := 0; trial < 12; trial++ {
			src, dst := rng.Intn(net.NumRouters()), rng.Intn(net.NumRouters())
			if src == dst {
				continue
			}
			p, err := rg.ShortestPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			r, err := routes.FromRouterPath(net, cls.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			if phantom == nil {
				phantom = &r
				continue
			}
			if err := set.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		m := NewModel(net)
		sc := &SolveScratch{}
		var warm []float64
		for _, alpha := range alphas {
			in := ClassInput{Class: cls, Alpha: alpha, Routes: set}
			for _, tc := range []struct {
				label string
				extra *routes.Route
				d0    []float64
			}{
				{"cold", nil, nil},
				{"cold+extra", phantom, nil},
				{"warm", nil, warm},
				{"warm+extra", phantom, warm},
			} {
				want := fullSweep(m, in, tc.extra, tc.d0)
				got, err := m.SolveTwoClassScratch(in, tc.extra, tc.d0, sc)
				if err != nil {
					t.Fatal(err)
				}
				scratchEqual(t, spec+"/"+tc.label, got, want)
				if tc.label == "cold" && want.Converged {
					warm = append([]float64(nil), want.D...)
				}
			}
			if warm == nil {
				warm = make([]float64, net.NumServers())
			}
		}
	}
}

// A phantom candidate solved through the scratch path must be
// bit-identical to physically adding the route and solving, and after
// RemoveLast the set must solve exactly as it did before the Add — the
// contract that lets candidate trials never touch the shared set, and
// the one the set's prefix forest must keep across Add/RemoveLast.
func TestScratchMatchesAddRemove(t *testing.T) {
	cls := traffic.Voice()
	for _, spec := range []string{"ring:8", "grid:4x3", "nsfnet", "mci"} {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		rg := net.RouterGraph()
		rng := rand.New(rand.NewSource(5))
		set := routes.NewSet(net)
		m := NewModel(net)
		sc := &SolveScratch{}
		for trial := 0; trial < 20; trial++ {
			src, dst := rng.Intn(net.NumRouters()), rng.Intn(net.NumRouters())
			if src == dst {
				continue
			}
			paths, err := graph.NewKSPSolver(rg).Paths(src, dst, 3)
			if err != nil {
				t.Fatal(err)
			}
			cand, err := routes.FromRouterPath(net, cls.Name, paths[rng.Intn(len(paths))])
			if err != nil {
				t.Fatal(err)
			}
			in := ClassInput{Class: cls, Alpha: 0.30, Routes: set}
			before, err := m.SolveTwoClass(in)
			if err != nil {
				t.Fatal(err)
			}
			phantom, err := m.SolveTwoClassScratch(in, &cand, nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			phantom = &Result{D: append([]float64(nil), phantom.D...), Y: append([]float64(nil), phantom.Y...),
				Converged: phantom.Converged, Iterations: phantom.Iterations}
			if err := set.Add(cand); err != nil {
				t.Fatal(err)
			}
			added, err := m.SolveTwoClass(in)
			if err != nil {
				t.Fatal(err)
			}
			scratchEqual(t, spec+"/phantom-vs-add", phantom, added)
			if rng.Intn(3) == 0 { // keep two in three, undo the rest
				set.RemoveLast()
				undone, err := m.SolveTwoClassScratch(in, nil, nil, sc)
				if err != nil {
					t.Fatal(err)
				}
				scratchEqual(t, spec+"/after-remove", undone, before)
			}
		}
	}
}

// Warm-starting from the converged base of a route subset — exactly what
// the selection engine does per accepted pair — must reach the same
// fixed point as a cold solve, in no more iterations.
func TestSolveScratchWarmStartMonotone(t *testing.T) {
	net := topology.MCI()
	cls := traffic.Voice()
	rg := net.RouterGraph()
	set := routes.NewSet(net)
	pairs := net.Pairs()[:20]
	m := NewModel(net)
	sc := &SolveScratch{}
	base := make([]float64, net.NumServers())
	for _, p := range pairs {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		r, err := routes.FromRouterPath(net, cls.Name, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(r); err != nil {
			t.Fatal(err)
		}
		in := ClassInput{Class: cls, Alpha: 0.3, Routes: set}
		warm, err := m.SolveTwoClassScratch(in, nil, base, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Converged {
			t.Fatalf("diverged after %d routes", set.Len())
		}
		warmIters := warm.Iterations
		copy(base, warm.D)
		cold, err := m.SolveTwoClass(in)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Iterations < warmIters {
			t.Fatalf("warm start took %d iterations, cold only %d", warmIters, cold.Iterations)
		}
		for s := range base {
			if math.Abs(base[s]-cold.D[s]) > 1e-12*math.Max(1, cold.D[s]) {
				t.Fatalf("warm fixed point drifts from cold at server %d: %.17g vs %.17g",
					s, base[s], cold.D[s])
			}
		}
	}
}

// Steady-state scratch solves must not allocate: that is the contract
// route selection's candidate loop depends on.
func TestSolveScratchZeroAllocs(t *testing.T) {
	net := topology.MCI()
	cls := traffic.Voice()
	rg := net.RouterGraph()
	set := routes.NewSet(net)
	for _, p := range net.Pairs()[:15] {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		r, err := routes.FromRouterPath(net, cls.Name, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	m := NewModel(net)
	sc := &SolveScratch{}
	in := ClassInput{Class: cls, Alpha: 0.3, Routes: set}
	if _, err := m.SolveTwoClassScratch(in, nil, nil, sc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.SolveTwoClassScratch(in, nil, nil, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state scratch solve allocates %.1f/op, want 0", allocs)
	}
}

func TestSolveScratchInputValidation(t *testing.T) {
	net := topology.MCI()
	m := NewModel(net)
	sc := &SolveScratch{}
	set := routes.NewSet(net)
	if _, err := m.SolveTwoClassScratch(ClassInput{Class: traffic.Voice(), Alpha: 1.5, Routes: set}, nil, nil, sc); err == nil {
		t.Fatal("alpha out of range accepted")
	}
	if _, err := m.SolveTwoClassScratch(ClassInput{Class: traffic.Voice(), Alpha: 0.3, Routes: set}, nil, make([]float64, 3), sc); err == nil {
		t.Fatal("short warm-start vector accepted")
	}
}
