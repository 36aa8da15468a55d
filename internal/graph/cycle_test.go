package graph

import (
	"math/rand"
	"testing"
)

// oracleHasCycle is the whole-graph depth-first search that
// routes.Set's reach-only cycle check replaced: it reports whether g plus
// the extra arcs has a directed cycle, starting a search at every vertex.
// Duplicates of existing arcs are harmless, and a self-loop arc is a
// cycle. routes/dep_test.go holds a copy (test code is not shared across
// packages) and checks the set against it; these tests check the search.
func oracleHasCycle(g *Graph, extra [][2]int) bool {
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

func TestHasCycle(t *testing.T) {
	dag := New(4)
	mustEdge(t, dag, 0, 1)
	mustEdge(t, dag, 1, 2)
	mustEdge(t, dag, 0, 2)
	mustEdge(t, dag, 2, 3)
	if oracleHasCycle(dag, nil) {
		t.Error("DAG reported cyclic")
	}
	mustEdge(t, dag, 3, 0)
	if !oracleHasCycle(dag, nil) {
		t.Error("cycle not detected")
	}
}

func TestHasCycleEmpty(t *testing.T) {
	if oracleHasCycle(New(0), nil) || oracleHasCycle(New(5), nil) {
		t.Error("edgeless graph reported cyclic")
	}
}

// Overlaid arcs on a known graph: closing arcs, duplicates, self-loops
// and extras visited out of search order.
func TestHasCycleWithArcs(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	for i, tc := range []struct {
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
	} {
		if got := oracleHasCycle(g, tc.extra); got != tc.want {
			t.Fatalf("case %d extra=%v: got %v, want %v", i, tc.extra, got, tc.want)
		}
	}
	if g.Size() != 2 {
		t.Fatalf("overlay modified the graph: %d arcs", g.Size())
	}
}

// Overlaying arcs must answer as adding them to a copy does.
func TestHasCycleWithArcsMatchesClone(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(6)
		g := New(n)
		for e := 0; e < n; e++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v && !g.HasEdge(u, v) {
				mustEdge(t, g, u, v)
			}
		}
		for trial := 0; trial < 40; trial++ {
			var extra [][2]int
			clone := g.Clone()
			for a := rng.Intn(4); a >= 0; a-- {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					extra = append(extra, [2]int{u, v})
					if !clone.HasEdge(u, v) {
						mustEdge(t, clone, u, v)
					}
				}
			}
			if got, want := oracleHasCycle(g, extra), oracleHasCycle(clone, nil); got != want {
				t.Fatalf("seed=%d extra=%v: overlaid %v, added %v", seed, extra, got, want)
			}
		}
	}
}
