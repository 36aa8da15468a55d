package graph

import (
	"math/rand"
	"testing"
)

// randomConnected builds a deterministic undirected connected graph:
// a random spanning tree plus extra random edges.
func randomConnected(n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		if err := g.AddBoth(u, v); err != nil {
			panic(err)
		}
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddBoth(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

// A reused solver must return exactly what a fresh solver does:
// any stale blocking or BFS state left between calls would change the
// path set. Exercised across random graphs, pairs, and k values.
func TestKSPSolverReuseMatchesOneShot(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := randomConnected(14, 10, seed)
		s := NewKSPSolver(g)
		rng := rand.New(rand.NewSource(seed * 100))
		for trial := 0; trial < 30; trial++ {
			src, dst := rng.Intn(g.Order()), rng.Intn(g.Order())
			k := 1 + rng.Intn(6)
			got, gotErr := s.Paths(src, dst, k)
			want, wantErr := NewKSPSolver(g).Paths(src, dst, k)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed=%d %d->%d k=%d: err %v vs %v", seed, src, dst, k, gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("seed=%d %d->%d k=%d: %d paths, want %d", seed, src, dst, k, len(got), len(want))
			}
			for i := range got {
				if !equalPath(got[i], want[i]) {
					t.Fatalf("seed=%d %d->%d k=%d path %d: %v, want %v", seed, src, dst, k, i, got[i], want[i])
				}
			}
		}
	}
}

// The whole point of the solver struct: repeated queries must allocate
// strictly less than queries on fresh solvers (which rebuild the scratch
// every time). The returned paths still allocate — only the scratch is
// amortized — so the assertion is relative, not zero.
func TestKSPSolverAllocs(t *testing.T) {
	g := randomConnected(20, 14, 3)
	s := NewKSPSolver(g)
	if _, err := s.Paths(0, g.Order()-1, 6); err != nil { // warm the scratch
		t.Fatal(err)
	}
	reused := testing.AllocsPerRun(50, func() {
		if _, err := s.Paths(0, g.Order()-1, 6); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := NewKSPSolver(g).Paths(0, g.Order()-1, 6); err != nil {
			t.Fatal(err)
		}
	})
	if reused >= fresh {
		t.Fatalf("reused solver allocates %.1f/op, fresh %.1f/op — scratch not reused", reused, fresh)
	}
}

func TestKSPSolverBadInput(t *testing.T) {
	g := New(3)
	s := NewKSPSolver(g)
	if got, err := s.Paths(0, 1, 0); got != nil || err != nil {
		t.Fatalf("k=0: got %v, %v", got, err)
	}
	if _, err := s.Paths(-1, 1, 2); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, err := s.Paths(0, 5, 2); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if _, err := s.Paths(0, 1, 2); err != ErrNoPath {
		t.Fatalf("disconnected pair: err %v, want ErrNoPath", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !g.RemoveEdge(0, 2) {
		t.Fatal("existing arc not removed")
	}
	if g.HasEdge(0, 2) || g.Size() != 3 {
		t.Fatalf("arc still present or size %d != 3", g.Size())
	}
	// Successor order of the survivors is preserved.
	ns := g.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Fatalf("neighbors after removal: %v", ns)
	}
	if g.RemoveEdge(0, 2) || g.RemoveEdge(2, 0) || g.RemoveEdge(-1, 0) || g.RemoveEdge(9, 0) {
		t.Fatal("absent arc reported removed")
	}
	if g.Size() != 3 {
		t.Fatalf("size changed by no-op removals: %d", g.Size())
	}
	// Removing and re-adding keeps AddEdge happy (no duplicate ghost).
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
}

// Vertex-sequence helpers for the oracle and the assertions.

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func containsPath(set [][]int, p []int) bool {
	for _, q := range set {
		if equalPath(q, p) {
			return true
		}
	}
	return false
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
