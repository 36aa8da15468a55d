package graph

import (
	"fmt"
	"math"
)

// WeightFunc returns the nonnegative cost of the arc u -> v. It is only
// called for arcs present in the graph.
type WeightFunc func(u, v int) float64

// ShortestPathWeighted returns a minimum-cost path from src to dst under
// the weight function (Dijkstra), with deterministic tie-breaking by the
// vertex sequence. Costs must be nonnegative.
func (g *Graph) ShortestPathWeighted(src, dst int, w WeightFunc) ([]int, float64, error) {
	paths, err := NewWeightedKSPSolver(g).Paths(src, dst, 1, w)
	if err != nil {
		return nil, 0, err
	}
	return paths[0], pathCost(paths[0], w), nil
}

// KShortestPathsWeighted is Yen's algorithm under a weight function: up
// to k loop-free minimum-cost paths, cheapest first, deterministic (see
// WeightedKSPSolver.Paths). Callers issuing many queries over the same
// graph should hold a WeightedKSPSolver to reuse its scratch.
func (g *Graph) KShortestPathsWeighted(src, dst, k int, w WeightFunc) ([][]int, error) {
	return NewWeightedKSPSolver(g).Paths(src, dst, k, w)
}

// pathCost sums the arc costs along path, left to right.
func pathCost(path []int, w WeightFunc) float64 {
	c := 0.0
	for i := 0; i+1 < len(path); i++ {
		c += w(path[i], path[i+1])
	}
	return c
}

// WeightedKSPSolver is KSPSolver under arc weights: Yen's algorithm with
// Dijkstra spur searches whose distance, done and heap scratch, blocking
// state and candidate buffers are reused across calls, so a steady-state
// query allocates only the paths it returns. The delay-weighted route
// selector keeps one per selection.
//
// A solver is bound to the graph passed to NewWeightedKSPSolver and is
// not safe for concurrent use; the returned paths are freshly allocated
// and may be retained by the caller.
type WeightedKSPSolver struct {
	g *Graph
	// Dijkstra scratch.
	dist []float64
	done []bool
	heap distHeap
	yen
}

// NewWeightedKSPSolver returns a solver over g. The graph may keep
// growing; the scratch resizes on the next call.
func NewWeightedKSPSolver(g *Graph) *WeightedKSPSolver { return &WeightedKSPSolver{g: g} }

// Paths returns up to k loop-free minimum-cost paths from src to dst
// under w, cheapest first, ties broken lexicographically by the vertex
// sequence. It returns fewer than k paths when the graph does not
// contain that many simple paths. Costs must be nonnegative.
func (s *WeightedKSPSolver) Paths(src, dst, k int, w WeightFunc) ([][]int, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := s.g.check(src); err != nil {
		return nil, err
	}
	if err := s.g.check(dst); err != nil {
		return nil, err
	}
	n := s.g.Order()
	s.resize(n)
	if len(s.dist) != n {
		s.dist = make([]float64, n)
		s.done = make([]bool, n)
	}
	search := func(src, dst, spur int) bool { return s.dijkstra(src, dst, spur, w) }
	cost := func(path []int) float64 { return pathCost(path, w) }
	paths := s.paths(src, dst, k, search, cost)
	if paths == nil {
		return nil, ErrNoPath
	}
	return paths, nil
}

// dijkstra is WeightedKSPSolver's spur search: Dijkstra from src until
// dst is settled, skipping blocked vertices and — when spur >= 0 — the
// blocked arcs out of spur. Equal distances pop in push order: the heap
// orders by (dist, seq) and seq is unique, so the pop sequence is fixed
// by the pushes alone.
func (s *WeightedKSPSolver) dijkstra(src, dst, spur int, w WeightFunc) bool {
	if s.blockedNode[src] || s.blockedNode[dst] {
		return false
	}
	if src == dst {
		s.parent[src] = src
		return true
	}
	dist, parent, done := s.dist, s.parent, s.done
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
		done[i] = false
	}
	dist[src] = 0
	parent[src] = src
	var seq uint64
	q := append(s.heap[:0], distItem{v: src})
	reached := false
	for len(q) > 0 {
		it := q.pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		if reached = it.v == dst; reached {
			break
		}
		for _, u := range s.g.adj[it.v] {
			if done[u] || s.blockedNode[u] || (it.v == spur && s.blockedNext[u]) {
				continue
			}
			cost := w(it.v, u)
			if cost < 0 {
				panic(fmt.Sprintf("graph: negative weight on arc %d->%d", it.v, u))
			}
			if nd := dist[it.v] + cost; nd < dist[u] {
				dist[u] = nd
				parent[u] = it.v
				seq++
				q.push(distItem{v: u, dist: nd, seq: seq})
			}
		}
	}
	s.heap = q[:0]
	return reached
}

// distItem is a Dijkstra queue entry; seq is its push order.
type distItem struct {
	dist float64
	seq  uint64
	v    int
}

func (a distItem) less(b distItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.seq < b.seq
}

// distHeap is a binary min-heap of distItems.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	q := append(*h, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *distHeap) pop() distItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].less(q[m]) {
			m = r
		}
		if !q[m].less(q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}
