package graph

import (
	"fmt"
	"math"
)

// WeightFunc returns the nonnegative cost of the arc u -> v. It is only
// called for arcs present in the graph.
type WeightFunc func(u, v int) float64

// WeightedKSPSolver is KSPSolver under arc weights: Yen's algorithm with
// Dijkstra spur searches whose distance and queue scratch, blocking
// state and candidate buffers are reused across calls, so a steady-state
// query allocates only the paths it returns. The delay-weighted route
// selector keeps one per selection.
//
// A solver is bound to the graph passed to NewWeightedKSPSolver and is
// not safe for concurrent use; the returned paths are freshly allocated
// and may be retained by the caller.
type WeightedKSPSolver struct {
	g *Graph
	// w[off[u]+j] is the weight of the arc from u to g.adj[u][j], read
	// once per Paths call.
	w   []float64
	off []int
	// Dijkstra scratch.
	dist  []float64
	queue []queued
	yen
}

// NewWeightedKSPSolver returns a solver over g. The graph may keep
// growing; the scratch resizes on the next call.
func NewWeightedKSPSolver(g *Graph) *WeightedKSPSolver { return &WeightedKSPSolver{g: g} }

// Paths returns up to k loop-free minimum-cost paths from src to dst
// under w, cheapest first, ties broken lexicographically by the vertex
// sequence. It returns fewer than k paths when the graph does not
// contain that many simple paths. w is called once per arc; a negative
// weight panics.
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
	}
	s.w, s.off = s.w[:0], s.off[:0]
	for u, vs := range s.g.adj {
		s.off = append(s.off, len(s.w))
		for _, v := range vs {
			c := w(u, v)
			if c < 0 {
				panic(fmt.Sprintf("graph: negative weight on arc %d->%d", u, v))
			}
			s.w = append(s.w, c)
		}
	}
	s.off = append(s.off, len(s.w))
	paths := s.paths(src, dst, k, s.dijkstra, s.cost)
	if paths == nil {
		return nil, ErrNoPath
	}
	return paths, nil
}

// cost adds the arc weights along path to start, left to right.
func (s *WeightedKSPSolver) cost(start float64, path []int) float64 {
	c := start
	for i := 0; i+1 < len(path); i++ {
		u := path[i]
		for j, v := range s.g.adj[u] {
			if v == path[i+1] {
				c += s.w[s.off[u]+j]
				break
			}
		}
	}
	return c
}

// dijkstra is WeightedKSPSolver's spur search: Dijkstra from src until
// dst is settled, skipping blocked vertices and — when spur >= 0 — the
// blocked arcs out of spur, and giving up when root plus the distance
// popped exceeds limit. The queue is a sorted array: the few entries a
// small graph's search holds make an insertion cheaper than a heap's
// sift, and ties pop in push order without a sequence number. A
// vertex's pushes carry falling distances, so its first pop is its last
// push; a settled vertex is never pushed again, since no later
// relaxation improves on it.
func (s *WeightedKSPSolver) dijkstra(src, dst, spur int, root, limit float64) bool {
	if s.blockedNode[src] || s.blockedNode[dst] {
		return false
	}
	if src == dst {
		s.parent[src] = src
		return true
	}
	// A blocked vertex starts at -Inf, which no relaxation improves on.
	// parent needs no reset: the search sets it on every vertex of the
	// path it finds.
	dist, parent := s.dist, s.parent
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for _, v := range s.rootNodes {
		dist[v] = math.Inf(-1)
	}
	dist[src] = 0
	parent[src] = src
	// q[head:] is the queue, ascending by distance, ties in push order.
	q, head := append(s.queue[:0], queued{v: src}), 0
	reached := false
	for head < len(q) {
		it := q[head]
		head++
		u := it.v
		if dist[u] != it.dist { // an older push of a vertex since improved
			continue
		}
		if root+it.dist > limit {
			break
		}
		if reached = u == dst; reached {
			break
		}
		w := s.w[s.off[u]:s.off[u+1]]
		for j, v := range s.g.adj[u] {
			if nd := it.dist + w[j]; nd < dist[v] && !(u == spur && s.blockedNext[v]) {
				dist[v] = nd
				parent[v] = u
				q = append(q, queued{})
				i := len(q) - 1
				for ; i > head && q[i-1].dist > nd; i-- {
					q[i] = q[i-1]
				}
				q[i] = queued{dist: nd, v: v}
			}
		}
	}
	s.queue = q[:0]
	return reached
}

// queued is a Dijkstra queue entry.
type queued struct {
	dist float64
	v    int
}
