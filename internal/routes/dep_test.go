package routes

import (
	"math/rand"
	"testing"

	"ubac/internal/graph"
	"ubac/internal/topology"
)

// rebuildDep is the from-scratch dependency graph construction the
// incremental cache replaced; the parity oracle for these tests.
func rebuildDep(s *Set) *graph.Graph {
	g := graph.New(s.net.NumServers())
	for _, r := range s.routes {
		for i := 0; i+1 < len(r.Servers); i++ {
			u, v := r.Servers[i], r.Servers[i+1]
			if !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func sameDigraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.Order() != want.Order() || got.Size() != want.Size() {
		t.Fatalf("graph shape: %d vertices %d arcs, want %d vertices %d arcs",
			got.Order(), got.Size(), want.Order(), want.Size())
	}
	for u := 0; u < want.Order(); u++ {
		for _, v := range want.Neighbors(u) {
			if !got.HasEdge(u, v) {
				t.Fatalf("missing arc %d->%d", u, v)
			}
		}
	}
	if got.HasCycle() != want.HasCycle() {
		t.Fatalf("HasCycle: %v, want %v", got.HasCycle(), want.HasCycle())
	}
}

// The incrementally maintained dependency graph must match a full
// rebuild after every Add and RemoveLast, including arcs shared by
// several routes (multiplicity > 1) that must survive the removal of
// one sharer.
func TestDependencyGraphIncrementalMatchesRebuild(t *testing.T) {
	net, err := topology.Grid(4, 3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	rg := net.RouterGraph()
	rng := rand.New(rand.NewSource(7))
	s := NewSet(net)
	// Materialize the cache up front so every mutation below exercises
	// the incremental path.
	if s.DependencyGraph().Size() != 0 {
		t.Fatal("empty set has dependency arcs")
	}
	var pool []Route
	for trial := 0; trial < 60; trial++ {
		src, dst := rng.Intn(net.NumRouters()), rng.Intn(net.NumRouters())
		if src == dst {
			continue
		}
		paths, err := graph.NewKSPSolver(rg).Paths(src, dst, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := FromRouterPath(net, "v", paths[rng.Intn(len(paths))])
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, r)
	}
	for step, r := range pool {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
		sameDigraph(t, s.DependencyGraph(), rebuildDep(s))
		// Occasionally pop one or two routes to exercise removal.
		for n := rng.Intn(3); n > 0 && s.Len() > 0; n-- {
			s.RemoveLast()
			sameDigraph(t, s.DependencyGraph(), rebuildDep(s))
		}
		_ = step
	}
	for s.Len() > 0 {
		s.RemoveLast()
		sameDigraph(t, s.DependencyGraph(), rebuildDep(s))
	}
	if s.DependencyGraph().Size() != 0 {
		t.Fatal("arcs left after removing every route")
	}
}

// A lazily built cache (first DependencyGraph call after many mutations)
// must agree with one maintained from the start, and a Clone must not
// share or inherit stale cache state.
func TestDependencyGraphLazyAndClone(t *testing.T) {
	net, err := topology.Ring(6, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	rg := net.RouterGraph()
	s := NewSet(net)
	for dst := 1; dst < 4; dst++ {
		p, err := rg.ShortestPath(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		r, err := FromRouterPath(net, "v", p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	sameDigraph(t, s.DependencyGraph(), rebuildDep(s))

	c := s.Clone()
	sameDigraph(t, c.DependencyGraph(), rebuildDep(c))
	// Mutating the clone must not disturb the original's cache.
	c.RemoveLast()
	sameDigraph(t, c.DependencyGraph(), rebuildDep(c))
	sameDigraph(t, s.DependencyGraph(), rebuildDep(s))
}

// WouldCycleOn over the cached graph must agree with a mutate-and-check
// oracle for both cyclic and acyclic candidates.
func TestWouldCycleOnCachedGraph(t *testing.T) {
	net, err := topology.Ring(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet(net)
	// Routes 0->1->2 and 2->3->0 leave the union acyclic...
	for _, p := range [][]int{{0, 1, 2}, {2, 3, 0}} {
		r, err := FromRouterPath(net, "v", p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	dep := s.DependencyGraph()
	around, err := FromRouterPath(net, "v", []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range []Route{around} {
		tmp := s.Clone()
		if err := tmp.Add(cand); err != nil {
			t.Fatal(err)
		}
		if got, want := WouldCycleOn(dep, cand), tmp.HasCycle(); got != want {
			t.Fatalf("WouldCycleOn(%v) = %v, oracle %v", cand.Servers, got, want)
		}
	}
}
