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
}

// oracleHasCycle is the whole-graph depth-first search the set's
// reach-only check replaced: it reports whether g plus the extra arcs
// has a directed cycle, starting a search at every vertex. Duplicates
// of existing arcs are harmless, and a self-loop arc is a cycle. It is
// a copy of the graph package's test oracle, which graph/cycle_test.go
// checks on known graphs and against adding the arcs to a copy.
func oracleHasCycle(g *graph.Graph, extra [][2]int) bool {
	color := make([]int8, g.Order()) // 0 unvisited, 1 on the path, 2 done
	var visit func(u int) bool
	step := func(v int) bool { return color[v] == 1 || color[v] == 0 && visit(v) }
	visit = func(u int) bool {
		color[u] = 1
		for _, v := range g.Neighbors(u) {
			if step(v) {
				return true
			}
		}
		for _, e := range extra {
			if e[0] == u && step(e[1]) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := range color {
		if color[u] == 0 && visit(u) {
			return true
		}
	}
	return false
}

// arcsOf lists the arcs joining consecutive servers.
func arcsOf(servers []int) [][2]int {
	var arcs [][2]int
	for i := 0; i+1 < len(servers); i++ {
		arcs = append(arcs, [2]int{servers[i], servers[i+1]})
	}
	return arcs
}

// sameDep checks the set's cached graph and its acyclicity against a
// rebuild and the whole-graph search.
func sameDep(t *testing.T, s *Set) {
	t.Helper()
	want := rebuildDep(s)
	sameDigraph(t, s.DependencyGraph(), want)
	if got, want := s.HasCycle(), oracleHasCycle(want, nil); got != want {
		t.Fatalf("HasCycle = %v, oracle %v", got, want)
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
		sameDep(t, s)
		// Occasionally pop one or two routes to exercise removal.
		for n := rng.Intn(3); n > 0 && s.Len() > 0; n-- {
			s.RemoveLast()
			sameDep(t, s)
		}
		_ = step
	}
	for s.Len() > 0 {
		s.RemoveLast()
		sameDep(t, s)
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

// WouldCycle over the cached graph must agree with a mutate-and-check
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
	s.DependencyGraph()
	// ...which 1->2->3 keeps and 3->0->1 closes.
	for _, p := range [][]int{{1, 2, 3}, {3, 0, 1}} {
		cand, err := FromRouterPath(net, "v", p)
		if err != nil {
			t.Fatal(err)
		}
		tmp := s.Clone()
		if err := tmp.Add(cand); err != nil {
			t.Fatal(err)
		}
		if got, want := s.WouldCycle(cand), tmp.HasCycle(); got != want {
			t.Fatalf("WouldCycle(%v) = %v, oracle %v", cand.Servers, got, want)
		}
		if s.HasCycle() {
			t.Fatal("WouldCycle mutated the set")
		}
	}
}

// randomRoute walks up to hops distinct routers from a random start
// and returns the route over them, or false if the walk got stuck at
// its first router.
func randomRoute(net *topology.Network, rng *rand.Rand, hops int) (Route, bool) {
	rg := net.RouterGraph()
	path := []int{rng.Intn(net.NumRouters())}
	on := map[int]bool{path[0]: true}
	for len(path) <= hops {
		var next []int
		for _, v := range rg.Neighbors(path[len(path)-1]) {
			if !on[v] {
				next = append(next, v)
			}
		}
		if len(next) == 0 {
			break
		}
		v := next[rng.Intn(len(next))]
		path = append(path, v)
		on[v] = true
	}
	if len(path) < 2 {
		return Route{}, false
	}
	r, err := FromRouterPath(net, "v", path)
	return r, err == nil
}

// The reach-only check and the acyclicity the set carries across Add
// and RemoveLast must equal the whole-graph search: on random route
// sets that stay acyclic (routes are added only when they close no
// cycle, as route selection prefers) and ones that do not, under
// backtracking's Add/RemoveLast sequences, for route candidates of 1 to
// 6 servers and for arbitrary server sequences, repeats included.
func TestWouldCycleMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := topology.MCI()
		if seed%2 == 0 {
			var err error
			if net, err = topology.Grid(4, 4, 100e6); err != nil {
				t.Fatal(err)
			}
		}
		keepAcyclic := seed%3 != 0
		s := NewSet(net)
		if seed%4 == 0 {
			// Routes added before the first query are replayed when the
			// graph is built.
			for s.Len() < 10 {
				if r, ok := randomRoute(net, rng, 1+rng.Intn(6)); ok {
					if err := s.Add(r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for step := 0; step < 120; step++ {
			if s.Len() > 0 && rng.Intn(4) == 0 {
				s.RemoveLast()
				sameDep(t, s)
				continue
			}
			dep := rebuildDep(s)
			for trial := 0; trial < 4; trial++ {
				var cand Route
				if rng.Intn(4) == 0 {
					cand.Servers = make([]int, 1+rng.Intn(6))
					for i := range cand.Servers {
						cand.Servers[i] = rng.Intn(net.NumServers())
					}
				} else if r, ok := randomRoute(net, rng, 1+rng.Intn(6)); ok {
					cand = r
				} else {
					continue
				}
				if got, want := s.WouldCycle(cand), oracleHasCycle(dep, arcsOf(cand.Servers)); got != want {
					t.Fatalf("seed %d step %d: WouldCycle(%v) = %v, oracle %v", seed, step, cand.Servers, got, want)
				}
			}
			r, ok := randomRoute(net, rng, 1+rng.Intn(6))
			if !ok || keepAcyclic && oracleHasCycle(dep, arcsOf(r.Servers)) {
				continue
			}
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
			sameDep(t, s)
		}
	}
}
