package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func mustBoth(t *testing.T, g *Graph, u, v int) {
	t.Helper()
	if err := g.AddBoth(u, v); err != nil {
		t.Fatalf("AddBoth(%d,%d): %v", u, v, err)
	}
}

func TestNewAndGrow(t *testing.T) {
	g := New(3)
	if g.Order() != 3 || g.Size() != 0 {
		t.Fatalf("got order=%d size=%d, want 3,0", g.Order(), g.Size())
	}
	id := g.AddVertex()
	if id != 3 || g.Order() != 4 {
		t.Fatalf("AddVertex: got id=%d order=%d", id, g.Order())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	mustEdge(t, g, 0, 1)
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate arc accepted")
	}
	if g.Size() != 1 {
		t.Errorf("size = %d, want 1", g.Size())
	}
}

func TestHasEdgeAndDegrees(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 3, 1)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("HasEdge out of range should be false")
	}
	if d := g.OutDegree(0); d != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", d)
	}
	if d := g.InDegree(1); d != 2 {
		t.Errorf("InDegree(1) = %d, want 2", d)
	}
	if g.MaxOutDegree() != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", g.MaxOutDegree())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	c := g.Clone()
	mustEdge(t, c, 1, 2)
	if g.HasEdge(1, 2) {
		t.Error("mutating clone affected original")
	}
	if c.Size() != 2 || g.Size() != 1 {
		t.Errorf("sizes: clone=%d orig=%d", c.Size(), g.Size())
	}
}

func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustBoth(t, g, i, i+1)
	}
	return g
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(t, 5)
	p, err := g.ShortestPath(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if !equalPath(p, want) {
		t.Errorf("path = %v, want %v", p, want)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := New(2)
	p, err := g.ShortestPath(1, 1)
	if err != nil || !equalPath(p, []int{1}) {
		t.Errorf("self path = %v err=%v", p, err)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	if _, err := g.ShortestPath(1, 0); err != ErrNoPath {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
	if _, err := g.ShortestPath(0, 2); err != ErrNoPath {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathBadVertex(t *testing.T) {
	g := New(2)
	if _, err := g.ShortestPath(0, 7); err == nil {
		t.Error("expected error for out-of-range dst")
	}
	if _, err := g.ShortestPath(-1, 0); err == nil {
		t.Error("expected error for out-of-range src")
	}
}

func TestDistances(t *testing.T) {
	g := lineGraph(t, 4)
	d := g.Distances(1)
	want := []int{1, 0, 1, 2}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
	if g.Distance(0, 3) != 3 {
		t.Errorf("Distance(0,3) = %d", g.Distance(0, 3))
	}
	if g.Distance(2, 2) != 0 {
		t.Errorf("Distance(2,2) = %d", g.Distance(2, 2))
	}
}

func TestDistanceUnreachable(t *testing.T) {
	g := New(2)
	if d := g.Distance(0, 1); d != -1 {
		t.Errorf("Distance = %d, want -1", d)
	}
}

func TestDiameterRing(t *testing.T) {
	n := 8
	g := New(n)
	for i := 0; i < n; i++ {
		mustBoth(t, g, i, (i+1)%n)
	}
	d, ok := g.Diameter()
	if !ok || d != 4 {
		t.Errorf("ring diameter = %d,%v, want 4,true", d, ok)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(3)
	mustBoth(t, g, 0, 1)
	if _, ok := g.Diameter(); ok {
		t.Error("disconnected graph reported connected")
	}
	if g.IsConnected() {
		t.Error("IsConnected true on disconnected graph")
	}
}

func TestKShortestPathsBasic(t *testing.T) {
	// Diamond: 0->1->3, 0->2->3, plus long route 0->4->5->3.
	g := New(6)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 0, 4)
	mustEdge(t, g, 4, 5)
	mustEdge(t, g, 5, 3)
	paths, err := NewKSPSolver(g).Paths(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths %v, want 3", len(paths), paths)
	}
	if len(paths[0]) != 3 || len(paths[1]) != 3 || len(paths[2]) != 4 {
		t.Errorf("path lengths wrong: %v", paths)
	}
	// Deterministic lexicographic tie-break between the two 2-hop paths.
	if !equalPath(paths[0], []int{0, 1, 3}) || !equalPath(paths[1], []int{0, 2, 3}) {
		t.Errorf("tie-break not deterministic: %v", paths)
	}
}

func TestKShortestPathsKZero(t *testing.T) {
	g := lineGraph(t, 3)
	paths, err := NewKSPSolver(g).Paths(0, 2, 0)
	if err != nil || paths != nil {
		t.Errorf("k=0: got %v, %v", paths, err)
	}
}

func TestKShortestPathsNoPath(t *testing.T) {
	g := New(2)
	if _, err := NewKSPSolver(g).Paths(0, 1, 3); err != ErrNoPath {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestKShortestPathsSimple(t *testing.T) {
	// All returned paths must be simple (no repeated vertex).
	n := 7
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i+j)%2 == 0 || j == i+1 {
				mustBoth(t, g, i, j)
			}
		}
	}
	paths, err := NewKSPSolver(g).Paths(0, n-1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected several paths, got %d", len(paths))
	}
	seen := make(map[string]bool)
	prevLen := 0
	for _, p := range paths {
		visited := make(map[int]bool)
		for _, v := range p {
			if visited[v] {
				t.Errorf("path %v revisits %d", p, v)
			}
			visited[v] = true
		}
		key := pathKey(p)
		if seen[key] {
			t.Errorf("duplicate path %v", p)
		}
		seen[key] = true
		if len(p) < prevLen {
			t.Errorf("paths not ordered by length: %v", paths)
		}
		prevLen = len(p)
		if p[0] != 0 || p[len(p)-1] != n-1 {
			t.Errorf("endpoints wrong in %v", p)
		}
	}
}

func pathKey(p []int) string {
	b := make([]byte, 0, len(p)*2)
	for _, v := range p {
		b = append(b, byte(v), ',')
	}
	return string(b)
}

// randomConnectedGraph builds an undirected connected graph on n vertices.
func randomConnectedGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		_ = g.AddBoth(i, j)
	}
	extra := n / 2
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			_ = g.AddBoth(u, v)
		}
	}
	return g
}

// Property: the first path KSPSolver.Paths returns always has the BFS
// shortest-path length, and every path is at least that long.
func TestKShortestFirstIsShortestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := randomConnectedGraph(rng, n)
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			return true
		}
		sp, err := g.ShortestPath(src, dst)
		if err != nil {
			return false
		}
		paths, err := NewKSPSolver(g).Paths(src, dst, 5)
		if err != nil || len(paths) == 0 {
			return false
		}
		if len(paths[0]) != len(sp) {
			return false
		}
		for _, p := range paths {
			if len(p) < len(sp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Diameter equals the max over Distances of every source.
func TestDiameterMatchesDistancesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randomConnectedGraph(rng, n)
		d, ok := g.Diameter()
		if !ok {
			return false
		}
		maxd := 0
		for u := 0; u < n; u++ {
			for _, dv := range g.Distances(u) {
				if dv > maxd {
					maxd = dv
				}
			}
		}
		return d == maxd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShortestPath(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := randomConnectedGraph(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPath(0, 199); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKShortestPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := randomConnectedGraph(rng, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewKSPSolver(g).Paths(0, 59, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func unitWeight(u, v int) float64 { return 1 }

func TestShortestPathWeightedMatchesBFSUnderUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 30)
	for trial := 0; trial < 50; trial++ {
		src, dst := rng.Intn(30), rng.Intn(30)
		bfs, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := NewWeightedKSPSolver(g).Paths(src, dst, 1, unitWeight)
		if err != nil {
			t.Fatal(err)
		}
		dij, cost := paths[0], pathCost(paths[0], unitWeight)
		if len(dij) != len(bfs) {
			t.Fatalf("%d->%d: dijkstra %d hops vs bfs %d", src, dst, len(dij)-1, len(bfs)-1)
		}
		if int(cost+0.5) != len(bfs)-1 {
			t.Fatalf("cost %g vs hops %d", cost, len(bfs)-1)
		}
	}
}

func TestShortestPathWeightedAvoidsHeavyArcs(t *testing.T) {
	// Square 0-1-2 vs direct 0-2: direct is one hop but heavy.
	g := New(3)
	mustBoth(t, g, 0, 1)
	mustBoth(t, g, 1, 2)
	mustBoth(t, g, 0, 2)
	w := func(u, v int) float64 {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 10
		}
		return 1
	}
	paths, err := NewWeightedKSPSolver(g).Paths(0, 2, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	p, cost := paths[0], pathCost(paths[0], w)
	if !equalPath(p, []int{0, 1, 2}) || cost != 2 {
		t.Errorf("path %v cost %g, want detour at cost 2", p, cost)
	}
}

func TestShortestPathWeightedErrors(t *testing.T) {
	g := New(2)
	s := NewWeightedKSPSolver(g)
	if _, err := s.Paths(0, 1, 1, unitWeight); err != ErrNoPath {
		t.Errorf("err = %v", err)
	}
	if _, err := s.Paths(0, 9, 1, unitWeight); err == nil {
		t.Error("bad vertex accepted")
	}
	// Self path.
	paths, err := NewWeightedKSPSolver(lineGraph(t, 2)).Paths(1, 1, 1, unitWeight)
	if err != nil || len(paths) != 1 || len(paths[0]) != 1 || pathCost(paths[0], unitWeight) != 0 {
		t.Errorf("self path: %v %v", paths, err)
	}
}

func TestKShortestWeightedMatchesUnweightedUnderUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 12)
	pu, err := NewKSPSolver(g).Paths(0, 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := NewWeightedKSPSolver(g).Paths(0, 11, 5, unitWeight)
	if err != nil {
		t.Fatal(err)
	}
	if len(pu) != len(pw) {
		t.Fatalf("counts differ: %d vs %d", len(pu), len(pw))
	}
	for i := range pu {
		if len(pu[i]) != len(pw[i]) {
			t.Errorf("path %d lengths differ: %v vs %v", i, pu[i], pw[i])
		}
	}
	if paths, err := NewWeightedKSPSolver(g).Paths(0, 11, 0, unitWeight); err != nil || paths != nil {
		t.Error("k=0 wrong")
	}
}

func TestKShortestWeightedOrderedByCost(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(rng, 14)
	weights := make(map[[2]int]float64)
	w := func(u, v int) float64 {
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if x, ok := weights[key]; ok {
			return x
		}
		x := 1 + rng.Float64()*5
		weights[key] = x
		return x
	}
	// Materialize all weights first for determinism of w.
	for u := 0; u < g.Order(); u++ {
		for _, v := range g.Neighbors(u) {
			w(u, v)
		}
	}
	paths, err := NewWeightedKSPSolver(g).Paths(0, 13, 6, w)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, p := range paths {
		c := 0.0
		for j := 0; j+1 < len(p); j++ {
			c += w(p[j], p[j+1])
		}
		if c < prev-1e-9 {
			t.Errorf("path %d cost %g < previous %g", i, c, prev)
		}
		prev = c
		seen := map[int]bool{}
		for _, v := range p {
			if seen[v] {
				t.Errorf("path %d revisits %d", i, v)
			}
			seen[v] = true
		}
	}
}
