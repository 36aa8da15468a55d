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

func TestHasCycleWithArcs(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		extra [][2]int
		want  bool
	}{
		{nil, false},
		{[][2]int{{2, 3}}, false},
		{[][2]int{{2, 0}}, true},          // closes 0->1->2->0
		{[][2]int{{0, 1}}, false},         // duplicate of an existing arc
		{[][2]int{{3, 3}}, true},          // self-loop
		{[][2]int{{2, 3}, {3, 0}}, true},  // cycle through two extras
		{[][2]int{{3, 0}, {1, 3}}, true},  // extras out of DFS order still found
		{[][2]int{{2, 3}, {3, 1}}, true},  // closes at 1
		{[][2]int{{3, 2}, {0, 3}}, false}, // converging arcs, no cycle
		{[][2]int{{2, 3}, {2, 3}}, false}, // duplicate extras
	}
	for i, tc := range cases {
		if got := g.HasCycleWithArcs(tc.extra); got != tc.want {
			t.Fatalf("case %d extra=%v: got %v, want %v", i, tc.extra, got, tc.want)
		}
	}
	// The graph itself must be untouched.
	if g.Size() != 2 || g.HasCycle() {
		t.Fatal("HasCycleWithArcs modified the graph")
	}
}

// HasCycleWithArcs must agree with the clone-and-add implementation it
// replaces, across random graphs and random arc batches.
func TestHasCycleWithArcsMatchesClone(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(6)
		g := New(n)
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
		for trial := 0; trial < 40; trial++ {
			var extra [][2]int
			for a := rng.Intn(4); a >= 0; a-- {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				extra = append(extra, [2]int{u, v})
			}
			clone := g.Clone()
			for _, e := range extra {
				if !clone.HasEdge(e[0], e[1]) {
					if err := clone.AddEdge(e[0], e[1]); err != nil {
						panic(err)
					}
				}
			}
			if got, want := g.HasCycleWithArcs(extra), clone.HasCycle(); got != want {
				t.Fatalf("seed=%d extra=%v: got %v, want %v", seed, extra, got, want)
			}
		}
	}
}
