package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleKShortestPathsWeighted is the original map-based weighted Yen
// that WeightedKSPSolver replaced, kept verbatim as the reference the
// solver must reproduce path for path: fresh Dijkstra state per spur,
// map blocking sets, container/heap, and a full sort of the candidates
// (costs recomputed in the comparator) before taking the cheapest.
func oracleKShortestPathsWeighted(g *Graph, src, dst, k int, w WeightFunc) ([][]int, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := g.check(src); err != nil {
		return nil, err
	}
	if err := g.check(dst); err != nil {
		return nil, err
	}
	first := oracleDijkstra(g, src, dst, w, nil, nil)
	if first == nil {
		return nil, ErrNoPath
	}
	paths := [][]int{first}
	var candidates [][]int
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			rootPath := prev[:i+1]
			blockedEdges := make(map[[2]int]bool)
			for _, p := range paths {
				if len(p) > i && equalPrefix(p, rootPath) {
					blockedEdges[[2]int{p[i], p[i+1]}] = true
				}
			}
			blockedNodes := make(map[int]bool)
			for _, v := range rootPath[:i] {
				blockedNodes[v] = true
			}
			spurPath := oracleDijkstra(g, spur, dst, w, blockedNodes, blockedEdges)
			if spurPath == nil {
				continue
			}
			full := append(append([]int(nil), rootPath[:i]...), spurPath...)
			if !containsPath(paths, full) && !containsPath(candidates, full) {
				candidates = append(candidates, full)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			ca, cb := pathCost(candidates[a], w), pathCost(candidates[b], w)
			if ca != cb {
				return ca < cb
			}
			return lessPath(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// pathCost sums the arc costs along path, left to right.
func pathCost(path []int, w WeightFunc) float64 {
	c := 0.0
	for i := 0; i+1 < len(path); i++ {
		c += w(path[i], path[i+1])
	}
	return c
}

type oracleItem struct {
	v    int
	dist float64
	seq  uint64
}

type oraclePQ []oracleItem

func (q oraclePQ) Len() int { return len(q) }
func (q oraclePQ) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].seq < q[j].seq
}
func (q oraclePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x interface{}) { *q = append(*q, x.(oracleItem)) }
func (q *oraclePQ) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

func oracleDijkstra(g *Graph, src, dst int, w WeightFunc, blockedNodes map[int]bool, blockedEdges map[[2]int]bool) []int {
	if blockedNodes[src] || blockedNodes[dst] {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	n := len(g.adj)
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[src] = 0
	parent[src] = src
	var seq uint64
	q := &oraclePQ{{v: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(oracleItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		if it.v == dst {
			return buildPath(parent, src, dst)
		}
		for _, u := range g.adj[it.v] {
			if done[u] || blockedNodes[u] || blockedEdges[[2]int{it.v, u}] {
				continue
			}
			if nd := dist[it.v] + w(it.v, u); nd < dist[u] {
				dist[u] = nd
				parent[u] = it.v
				seq++
				heap.Push(q, oracleItem{v: u, dist: nd, seq: seq})
			}
		}
	}
	return nil
}

// arcWeights is a fixed weight per arc, looked up by position in the
// tail's adjacency list.
type arcWeights struct {
	g *Graph
	w [][]float64
}

// tieWeights draws every arc's weight from a small set that makes exact
// ties and zero-weight arcs common: 0, small integers, or (one time in
// four) an arbitrary float.
func tieWeights(g *Graph, rng *rand.Rand) *arcWeights {
	aw := &arcWeights{g: g, w: make([][]float64, g.Order())}
	for u := range aw.w {
		aw.w[u] = make([]float64, len(g.adj[u]))
		for j := range aw.w[u] {
			switch rng.Intn(4) {
			case 0:
				aw.w[u][j] = 0
			case 1, 2:
				aw.w[u][j] = float64(1 + rng.Intn(3))
			default:
				aw.w[u][j] = rng.Float64() * 3
			}
		}
	}
	return aw
}

func (aw *arcWeights) weight(u, v int) float64 {
	for j, x := range aw.g.adj[u] {
		if x == v {
			return aw.w[u][j]
		}
	}
	panic("arcWeights: no such arc")
}

// samePaths fails unless got and want list the same paths in the same
// order (and agree on the error).
func samePaths(t *testing.T, label string, got [][]int, gotErr error, want [][]int, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, oracle %v", label, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths %v, oracle %d %v", label, len(got), got, len(want), want)
	}
	for i := range got {
		if !equalPath(got[i], want[i]) {
			t.Fatalf("%s: path %d = %v, oracle %v", label, i, got[i], want[i])
		}
	}
}

// The solver must return exactly the oracle's paths in exactly the
// oracle's order for every k — the delay-weighted selector's candidate
// order, and so the routes ubacd deploys, depend on it. Random graphs
// (undirected and directed), random pairs, weights with deliberate exact
// ties and zero-weight arcs, and one solver reused across all queries of
// a graph so stale scratch would show.
func TestWeightedKSPSolverMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *Graph
		if seed%3 == 0 {
			g = New(10 + rng.Intn(6))
			for e := 0; e < 3*g.Order(); e++ {
				u, v := rng.Intn(g.Order()), rng.Intn(g.Order())
				if u != v && !g.HasEdge(u, v) {
					if err := g.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		} else {
			g = randomConnected(10+rng.Intn(8), 6+rng.Intn(12), seed)
		}
		aw := tieWeights(g, rng)
		s := NewWeightedKSPSolver(g)
		for trial := 0; trial < 25; trial++ {
			src, dst := rng.Intn(g.Order()), rng.Intn(g.Order())
			for k := 1; k <= 8; k++ {
				got, gotErr := s.Paths(src, dst, k, aw.weight)
				want, wantErr := oracleKShortestPathsWeighted(g, src, dst, k, aw.weight)
				samePaths(t, "", got, gotErr, want, wantErr)
			}
		}
	}
}

// A warm solver allocates only what it returns: the paths and the slice
// holding them. Candidates it computes but does not return are recycled
// into the next call.
func TestWeightedKSPSolverAllocs(t *testing.T) {
	g := randomConnected(20, 14, 3)
	aw := tieWeights(g, rand.New(rand.NewSource(3)))
	s := NewWeightedKSPSolver(g)
	const k = 6
	paths, err := s.Paths(0, g.Order()-1, k, aw.weight) // warm the scratch
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != k {
		t.Fatalf("%d paths, want %d", len(paths), k)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Paths(0, g.Order()-1, k, aw.weight); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > k+1 {
		t.Fatalf("warm solver allocates %.1f/op, want at most %d (the returned paths and their slice)", allocs, k+1)
	}
}

// Graph shape, arc weights, the pair and k all come from the fuzz input.
// Weights are quantized so ties and zeros are frequent. The solver must
// equal the oracle, and the hop-count solver, whose Yen loop is the same
// code, must equal it under unit weights; independently, every path must
// be a simple walk over existing arcs from src to dst, and costs must not
// decrease.
func FuzzKShortestPathsWeighted(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5, 1, 4, 0, 3}, uint8(0), uint8(5), uint8(8))
	f.Add([]byte{4, 0, 1, 0, 2, 1, 3, 2, 3, 0, 3, 0, 0, 0, 0}, uint8(0), uint8(3), uint8(4))
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 8, 0, 16, 33, 50, 67, 84, 101}, uint8(1), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, src, dst, k uint8) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0])%10
		data = data[1:]
		g := New(n)
		type arc struct {
			u, v int
			w    float64
		}
		var arcs []arc
		for len(data) >= 3 {
			u, v := int(data[0])%n, int(data[1])%n
			w := float64(data[2] % 4) // 0..3: zeros and exact ties
			if data[2]&0x80 != 0 {
				w = float64(data[2]%64) / 8
			}
			data = data[3:]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			arcs = append(arcs, arc{u, v, w})
		}
		weight := func(u, v int) float64 {
			for _, a := range arcs {
				if a.u == u && a.v == v {
					return a.w
				}
			}
			t.Fatalf("weight asked for absent arc %d->%d", u, v)
			return 0
		}
		s, d, kk := int(src)%n, int(dst)%n, 1+int(k)%8
		solver := NewWeightedKSPSolver(g)
		want, wantErr := oracleKShortestPathsWeighted(g, s, d, kk, weight)
		for round := 0; round < 2; round++ { // the second round reuses the scratch
			got, gotErr := solver.Paths(s, d, kk, weight)
			samePaths(t, "", got, gotErr, want, wantErr)
		}
		wantHops, wantHopsErr := oracleKShortestPathsWeighted(g, s, d, kk, unitWeight)
		gotHops, gotHopsErr := NewKSPSolver(g).Paths(s, d, kk)
		samePaths(t, "hop-count", gotHops, gotHopsErr, wantHops, wantHopsErr)
		prev := 0.0
		for i, p := range want {
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("path %d %v does not join %d to %d", i, p, s, d)
			}
			seen := make(map[int]bool, len(p))
			for j, v := range p {
				if seen[v] {
					t.Fatalf("path %d %v revisits %d", i, p, v)
				}
				seen[v] = true
				if j > 0 && !g.HasEdge(p[j-1], v) {
					t.Fatalf("path %d %v uses absent arc %d->%d", i, p, p[j-1], v)
				}
			}
			c := pathCost(p, weight)
			if c < prev {
				t.Fatalf("path %d cost %g below previous %g", i, c, prev)
			}
			prev = c
		}
	})
}
