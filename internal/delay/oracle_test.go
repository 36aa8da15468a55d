package delay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteBacklog is the test oracle of backlog: sup_{I>0} Σ_p min(a_p +
// cap_p·I, A_p + B_p·I) − c·I by exhaustion. The objective is concave and
// piecewise linear, so its supremum is its I→0⁺ limit or its value at a
// breakpoint, and every breakpoint is a point where two of the pieces'
// lines cross. The oracle evaluates the sum at every positive crossing
// of every pair of lines, whichever pieces they belong to, so it does not
// depend on which kinks backlog visits. ok is false on an unstable server
// (Σ B_p ≥ c), whose supremum is infinite.
func bruteBacklog(ps []piece, c float64) (float64, bool) {
	rate := 0.0
	var lines [][2]float64 // {intercept, slope}
	for _, p := range ps {
		rate += p.B
		lines = append(lines, [2]float64{p.a, p.cap}, [2]float64{p.A, p.B})
	}
	if rate >= c {
		return 0, false
	}
	best := objective(ps, c, 0) // the I→0⁺ limit: each piece tends to min(a, A)
	for i, l := range lines {
		for _, m := range lines[i+1:] {
			if l[1] == m[1] {
				continue // parallel lines do not cross
			}
			if at := (m[0] - l[0]) / (l[1] - m[1]); at > 0 {
				best = math.Max(best, objective(ps, c, at))
			}
		}
	}
	return best, true
}

// objective returns Σ_p min(a_p + cap_p·I, A_p + B_p·I) − c·I at I = at.
func objective(ps []piece, c, at float64) float64 {
	v := -c * at
	for _, p := range ps {
		v += math.Min(p.a+p.cap*at, p.A+p.B*at)
	}
	return v
}

// The oracle is a supremum: on random sets of pieces, some shifted, no
// point of a fine grid over I lies above it, and the server whose rate
// equals Σ B_p is reported unstable.
func TestBruteBacklogDominatesGridProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := make([]piece, 1+rng.Intn(4))
		rate := 0.0
		for k := range ps {
			p := piece{cap: 1 + 100*rng.Float64(), A: 10 * rng.Float64(), B: 5 * rng.Float64()}
			if rng.Intn(2) == 0 {
				delta := rng.Float64()
				p.a, p.A = p.cap*delta, p.A+p.B*delta
			}
			ps[k], rate = p, rate+p.B
		}
		if _, ok := bruteBacklog(ps, rate); ok {
			return false
		}
		c := 1.2*rate + 1
		best, ok := bruteBacklog(ps, c)
		if !ok {
			return false
		}
		for i := 1; i <= 300; i++ {
			if objective(ps, c, float64(i)*0.01) > best+1e-9*math.Max(1, best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// mutantBacklog is backlog with a planted fault: dropZero leaves out the
// I→0⁺ term, skipLast never visits the last piece's kink.
func mutantBacklog(ps []piece, c float64, dropZero, skipLast bool) float64 {
	best := 0.0
	if !dropZero {
		for _, p := range ps {
			best += math.Min(p.a, p.A)
		}
	}
	kinks := ps
	if skipLast {
		kinks = ps[:len(ps)-1]
	}
	for _, bp := range kinks {
		if bp.A <= bp.a || bp.B >= bp.cap {
			continue
		}
		best = math.Max(best, objective(ps, c, (bp.A-bp.a)/(bp.cap-bp.B)))
	}
	return best
}

// The oracle must catch a kernel that is wrong: each planted mutation
// disagrees with it on at least one of the table's inputs, and backlog
// agrees with it on all of them.
func TestBruteBacklogCatchesMutations(t *testing.T) {
	const c = 100.0
	inputs := [][]piece{
		// A shifted piece that never kinks: the supremum is the I→0⁺ limit.
		{{a: 1000, cap: 10, A: 2000, B: 5}},
		// The last piece's kink, at I = 50, is the supremum (5,500).
		{{cap: 50, A: 1000, B: 10}, {cap: 180, A: 8000, B: 20}},
		// Voice's and F-F's video aggregates at α 0.3 and 0.2 (the
		// backlog scales with c, so c = 100 b/s keeps their shape).
		{aggregatePiece(0.3, 640, 32e3, 6, c, 0.01), aggregatePiece(0.2, 15e3, 1.5e6, 6, c, 0)},
	}
	mutants := []struct {
		name string
		f    func([]piece, float64) float64
	}{
		{"drop the I→0⁺ term", func(ps []piece, c float64) float64 { return mutantBacklog(ps, c, true, false) }},
		{"skip the last kink", func(ps []piece, c float64) float64 { return mutantBacklog(ps, c, false, true) }},
		{"swap cap and B in one piece", func(ps []piece, c float64) float64 {
			q := append([]piece(nil), ps...)
			q[0].cap, q[0].B = q[0].B, q[0].cap
			return backlog(q, c)
		}},
	}
	agrees := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Max(got, want) }
	for k, ps := range inputs {
		want, ok := bruteBacklog(ps, c)
		if !ok {
			t.Fatalf("input %d: oracle reports an unstable server", k)
		}
		if got := backlog(ps, c); !agrees(got, want) {
			t.Errorf("input %d: backlog %.17g, oracle %.17g", k, got, want)
		}
	}
	for _, m := range mutants {
		caught := false
		for _, ps := range inputs {
			want, _ := bruteBacklog(ps, c)
			caught = caught || !agrees(m.f(ps, c), want)
		}
		if !caught {
			t.Errorf("mutant %q agrees with the oracle on every input", m.name)
		}
	}
}

// benchSink keeps the benchmarked calls' results live, so the compiler
// cannot drop the calls.
var benchSink float64

// BenchmarkDelayClosedFormVsNumeric is the DESIGN.md §4 ablation on one
// aggregate: the Theorem 3 closed form, the kernel the multi-class and
// flow-aware solves run, and the exhaustive test oracle.
func BenchmarkDelayClosedFormVsNumeric(b *testing.B) {
	const alpha, burst, rho, n, c, y = 0.45, 640.0, 32e3, 6, 100e6, 0.02
	ps := []piece{aggregatePiece(alpha, burst, rho, n, c, y)}
	b.Run("closed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = ServerBound(alpha, burst, rho, n, y)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = backlog(ps, c)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, ok := bruteBacklog(ps, c)
			if !ok {
				b.Fatal("unstable")
			}
			benchSink = v
		}
	})
}
