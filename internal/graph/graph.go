// Package graph provides the directed-graph machinery underlying the
// network model: shortest paths, k-shortest simple paths, all-pairs
// distances and diameter.
//
// Vertices are dense integer IDs in [0, Order()). The graph is a simple
// adjacency-list digraph; an undirected network is represented by a pair
// of arcs. All algorithms are deterministic: neighbor lists keep
// insertion order and ties are broken by smallest vertex ID.
package graph

import (
	"errors"
	"fmt"
)

// Graph is a directed graph over dense integer vertices.
// The zero value is an empty graph; use New or AddVertex/AddEdge to grow it.
type Graph struct {
	adj [][]int // adj[u] lists successors of u in insertion order
	m   int     // number of arcs
}

// New returns a directed graph with n vertices, numbered 0..n-1, and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]int, n)}
}

// Order returns the number of vertices.
func (g *Graph) Order() int { return len(g.adj) }

// Size returns the number of arcs.
func (g *Graph) Size() int { return g.m }

// AddVertex appends a new vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds the arc u -> v. Duplicate arcs and self-loops are rejected.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop %d", u)
	}
	for _, w := range g.adj[u] {
		if w == v {
			return fmt.Errorf("graph: duplicate arc %d->%d", u, v)
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.m++
	return nil
}

// RemoveEdge removes the arc u -> v, reporting whether it was present.
// The relative order of u's remaining successors is preserved, so
// deterministic traversals stay deterministic.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for i, w := range g.adj[u] {
		if w == v {
			g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
			g.m--
			return true
		}
	}
	return false
}

// AddBoth adds arcs u->v and v->u.
func (g *Graph) AddBoth(u, v int) error {
	if err := g.AddEdge(u, v); err != nil {
		return err
	}
	return g.AddEdge(v, u)
}

// HasEdge reports whether the arc u->v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the successors of u in insertion order.
// The returned slice must not be modified.
func (g *Graph) Neighbors(u int) []int {
	if u < 0 || u >= len(g.adj) {
		return nil
	}
	return g.adj[u]
}

// OutDegree returns the number of arcs leaving u.
func (g *Graph) OutDegree(u int) int {
	if u < 0 || u >= len(g.adj) {
		return 0
	}
	return len(g.adj[u])
}

// InDegree returns the number of arcs entering v. O(V+E).
func (g *Graph) InDegree(v int) int {
	n := 0
	for u := range g.adj {
		for _, w := range g.adj[u] {
			if w == v {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, len(g.adj)), m: g.m}
	for u, ns := range g.adj {
		c.adj[u] = append([]int(nil), ns...)
	}
	return c
}

func (g *Graph) check(v int) error {
	if v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, len(g.adj))
	}
	return nil
}

// ErrNoPath is returned when no path exists between the requested vertices.
var ErrNoPath = errors.New("graph: no path")

// ShortestPath returns a minimum-hop path from src to dst (inclusive),
// computed by BFS with deterministic tie-breaking (first-discovered, which
// given ordered adjacency lists means smallest-ID parent).
func (g *Graph) ShortestPath(src, dst int) ([]int, error) {
	if err := g.check(src); err != nil {
		return nil, err
	}
	if err := g.check(dst); err != nil {
		return nil, err
	}
	if src == dst {
		return []int{src}, nil
	}
	parent := make([]int, len(g.adj))
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if parent[v] != -1 {
				continue
			}
			parent[v] = u
			if v == dst {
				return buildPath(parent, src, dst), nil
			}
			queue = append(queue, v)
		}
	}
	return nil, ErrNoPath
}

func buildPath(parent []int, src, dst int) []int {
	var rev []int
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Distances returns the BFS hop distance from src to every vertex
// (-1 for unreachable vertices).
func (g *Graph) Distances(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= len(g.adj) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Distance returns the hop distance from src to dst, or -1 if unreachable.
func (g *Graph) Distance(src, dst int) int {
	if src == dst {
		if src < 0 || src >= len(g.adj) {
			return -1
		}
		return 0
	}
	return g.Distances(src)[dst]
}

// Diameter returns the maximum finite shortest-path distance over all
// ordered vertex pairs, and whether the graph is strongly connected.
// For an empty or single-vertex graph it returns (0, true).
func (g *Graph) Diameter() (int, bool) {
	d := 0
	connected := true
	for u := range g.adj {
		dist := g.Distances(u)
		for v, dv := range dist {
			if v == u {
				continue
			}
			if dv == -1 {
				connected = false
				continue
			}
			if dv > d {
				d = dv
			}
		}
	}
	return d, connected
}

// IsConnected reports whether every vertex is reachable from every other.
func (g *Graph) IsConnected() bool {
	_, ok := g.Diameter()
	return ok
}

// MaxOutDegree returns the largest out-degree in the graph (0 if empty).
func (g *Graph) MaxOutDegree() int {
	d := 0
	for _, ns := range g.adj {
		if len(ns) > d {
			d = len(ns)
		}
	}
	return d
}
