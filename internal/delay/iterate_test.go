package delay

import (
	"math/rand"
	"testing"

	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// ringWithArcs builds a ring of n routers and a route set of nRoutes
// random clockwise arcs. Arc routes overlap heavily, so every server's Y
// is a max over many routes.
func ringWithArcs(t *testing.T, n, nRoutes int, rng *rand.Rand) (*topology.Network, *routes.Set) {
	t.Helper()
	net, err := topology.Ring(n, 45e6)
	if err != nil {
		t.Fatal(err)
	}
	set := routes.NewSet(net)
	for i := 0; i < nRoutes; i++ {
		src := rng.Intn(n)
		hops := 1 + rng.Intn(n-1)
		path := make([]int, hops+1)
		for j := range path {
			path[j] = (src + j) % n
		}
		r, err := routes.FromRouterPath(net, "voice", path)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return net, set
}

// The Equation (14) iteration from d = 0 is monotone nondecreasing: Z is
// monotone in d and Z(0) >= 0, so each sweep's iterate dominates the
// previous one elementwise. Truncating the iteration at k sweeps exposes
// the k-th iterate.
func TestIteratesMonotoneFromZero(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	voice := traffic.Voice()
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(8)
		net, set := ringWithArcs(t, n, 1+rng.Intn(20), rng)
		alpha := 0.1 + 0.7*rng.Float64()
		in := ClassInput{Class: voice, Alpha: alpha, Routes: set}
		var prev []float64
		for k := 1; k <= 12; k++ {
			m := NewModel(net)
			m.MaxIter = k
			res, err := m.SolveTwoClass(in)
			if err != nil {
				t.Fatal(err)
			}
			for s := range prev {
				if res.D[s] < prev[s] {
					t.Fatalf("trial %d sweep %d server %d: iterate decreased %g -> %g",
						trial, k, s, prev[s], res.D[s])
				}
			}
			prev = append(prev[:0], res.D...)
		}
	}
}

// The active-domain sweep (SolveTwoClassScratch) folds the inactive
// servers' constant delays into its divergence test analytically, so it
// must declare divergence exactly when the full sweep does, in the same
// sweep. The alpha sweep crosses the stability boundary of a long ring
// whose counter-clockwise servers no route crosses, and the tightened
// DivergeCaps (1e-2 s is about one hop's gT) move the verdict into the
// first sweeps, where the folded first-sweep terms count.
func TestDivergenceParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	voice := traffic.Voice()
	net, set := ringWithArcs(t, 12, 40, rng)
	sawDiverge, sawConverge := false, false
	var sc SolveScratch
	for _, dcap := range []float64{1e4, 1.0, 1e-2} {
		for alpha := 0.05; alpha < 0.99; alpha += 0.05 {
			in := ClassInput{Class: voice, Alpha: alpha, Routes: set}
			m := NewModel(net)
			m.DivergeCap = dcap
			ref, err := m.SolveTwoClass(in)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Converged {
				sawConverge = true
			} else {
				sawDiverge = true
			}
			got, err := m.SolveTwoClassScratch(in, nil, nil, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Converged != ref.Converged || got.Iterations != ref.Iterations {
				t.Fatalf("cap=%g alpha=%.2f: scratch (%v, %d sweeps), full sweep (%v, %d)",
					dcap, alpha, got.Converged, got.Iterations, ref.Converged, ref.Iterations)
			}
		}
	}
	if !sawDiverge || !sawConverge {
		t.Fatalf("alpha sweep did not cross the stability boundary (diverge=%v converge=%v)",
			sawDiverge, sawConverge)
	}
}
