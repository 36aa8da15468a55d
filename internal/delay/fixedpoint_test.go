package delay_test

import (
	"math"
	"testing"

	"ubac/internal/config"
	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// The drivers iterate upward from d = 0 and stop at the 1e-12 Tol, so on
// a cyclic route set the returned D lies slightly below the least fixed
// point. A "safe" verdict is then sound only because MeetsDeadline
// forgives deadlineSlack (1e-9 relative). This pins that gap: on rings
// of 6, 8 and 12 routers with every pair on its shortest path (cyclic
// dependencies), at the largest safe α for each voice deadline, every
// route bound of the default solve is within the slack of a run to an
// exact stop (Tol 0).
func TestFixedPointGapInsideDeadlineSlack(t *testing.T) {
	for _, n := range []int{6, 8, 12} {
		net, err := topology.Ring(n, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		rg := net.RouterGraph()
		set := routes.NewSet(net)
		for _, p := range net.Pairs() {
			path, err := rg.ShortestPath(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			r, err := routes.FromRouterPath(net, "voice", path)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, deadline := range []float64{0.1, 1, 100} {
			voice := traffic.Voice()
			voice.Deadline = deadline
			m := delay.NewModel(net)
			mu, err := config.New(m).MaxUtilizationFixedRoutes(voice, set)
			if err != nil || mu.Alpha == 0 {
				t.Fatalf("ring:%d D=%gs: no safe alpha (%v)", n, deadline, err)
			}
			in := delay.ClassInput{Class: voice, Alpha: mu.Alpha, Routes: set}
			def, err := m.SolveTwoClass(in)
			if err != nil || !def.Converged {
				t.Fatalf("ring:%d D=%gs: default solve: %v", n, deadline, err)
			}
			exactModel := delay.NewModel(net)
			exactModel.Tol = 0
			exactModel.MaxIter = 100000
			exact, err := exactModel.SolveTwoClass(in)
			if err != nil || !exact.Converged {
				t.Fatalf("ring:%d D=%gs: exact stop not reached in %d sweeps: %v",
					n, deadline, exactModel.MaxIter, err)
			}
			gap := 0.0
			for j := 0; j < set.Len(); j++ {
				rt := set.Route(j)
				got, want := rt.Delay(def.D), rt.Delay(exact.D)
				if got > want {
					t.Fatalf("ring:%d D=%gs route %d: default %.17g above the exact stop %.17g",
						n, deadline, j, got, want)
				}
				if !delay.MeetsDeadline(want, got) {
					t.Errorf("ring:%d D=%gs route %d: default %.17g is %.3g low of the exact stop %.17g, beyond the deadline slack",
						n, deadline, j, got, (want-got)/want, want)
				}
				gap = math.Max(gap, (want-got)/want)
			}
			t.Logf("ring:%d D=%gs alpha=%.4f: worst route bound %.3g relative low; %d sweeps by default, %d to the exact stop",
				n, deadline, mu.Alpha, gap, def.Iterations, exact.Iterations)
		}
	}
}
