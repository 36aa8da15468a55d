package graph

import (
	"math"
	"slices"
)

// KSPSolver computes k-shortest simple paths over one graph repeatedly,
// reusing its BFS and Yen scratch across calls so that steady-state
// queries only allocate the returned paths. The route-selection engine
// keeps one solver per search and asks it for every pair's candidates.
//
// A solver is bound to the graph passed to NewKSPSolver and is not safe
// for concurrent use; the returned paths are freshly allocated and may
// be retained by the caller.
type KSPSolver struct {
	g     *Graph
	queue []int // BFS scratch
	yen
}

// yen is Yen's algorithm less its spur search, shared by KSPSolver (BFS)
// and WeightedKSPSolver (Dijkstra): the blocking state, the search tree
// the spur search leaves in parent, and the candidate buffers.
type yen struct {
	// blockedNode marks root-path vertices, blockedNext marks arcs out of
	// the current spur vertex (every blocked arc leaves the spur, so one
	// bool per target suffices).
	blockedNode []bool
	rootNodes   []int // the vertices blockedNode marks
	blockedNext []bool
	btargets    []int      // targets set in blockedNext, for O(set) reset
	parent      []int      // the last spur search's tree, parent[src] = src
	buf         []int      // the candidate being assembled
	cands       []costPath // candidates not yet taken
	costs       []float64  // limit's scratch
	devs        []int      // devs[j] is the deviation index of the j-th path taken
	free        [][]int    // buffers of candidates a previous call left behind
}

// costPath is a Yen candidate with its cost, computed once, and its
// deviation index: the spur index at which it left the path it was
// spurred from.
type costPath struct {
	path []int
	cost float64
	dev  int
}

// cheaper is the candidate order: cost, then the vertex sequence. Yen's
// candidates are distinct paths, so this is a total order and the
// cheapest candidate is unique — taking it equals sorting the candidates
// and taking the head.
func (a costPath) cheaper(b costPath) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return slices.Compare(a.path, b.path) < 0
}

func (y *yen) resize(n int) {
	if len(y.parent) != n {
		y.parent = make([]int, n)
		y.blockedNode = make([]bool, n)
		y.blockedNext = make([]bool, n)
	}
}

// paths runs Yen's algorithm for up to k paths from src to dst, cheapest
// by cost first. search(src, dst, spur, root, limit) must find a path
// avoiding the blocked vertices and — when spur >= 0 — the blocked arcs
// out of spur, leave it in y.parent and report whether it found one; it
// may report none rather than a path whose cost after root exceeds
// limit. cost(start, path) is start plus path's arc costs, added left to
// right. It returns nil when there is no first path.
//
// Two rules skip work whose candidate could never be taken, so every
// pick is Yen's own. Spurs start at the previous path's deviation index
// (Lawler's rule): a spur below it repeats, with the same root and the
// same blocked arcs, a search an earlier path already made, so its
// candidate is already taken or pending. And once r = k−len(paths)
// pending candidates are cheaper than a path, it is never taken, since
// each of the r picks left takes one of them; limit carries the r-th
// cheapest cost up by a relative 1e-9, more than the rounding by which a
// path's left-to-right cost can differ from root plus spur distance.
func (y *yen) paths(src, dst, k int, search func(src, dst, spur int, root, limit float64) bool, cost func(start float64, path []int) float64) [][]int {
	if !search(src, dst, -1, 0, math.Inf(1)) {
		return nil
	}
	y.buf = y.spurPath(y.buf[:0], src, dst)
	paths := make([][]int, 1, min(k, 8)) // route selection asks for 8
	paths[0] = y.take(y.buf)
	devs := append(y.devs[:0], 0)
	cands := y.cands[:0]
	for len(paths) < k {
		prev := paths[len(paths)-1]
		limit := y.limit(cands, k-len(paths))
		// For each spur node in the previous path from where it left its
		// parent on, search for a deviation. root is the cost of rootPath.
		d := devs[len(devs)-1]
		for i, root := d, cost(0, prev[:d+1]); i < len(prev)-1; i, root = i+1, cost(root, prev[i:i+2]) {
			rootPath := prev[:i+1]
			y.block(paths, rootPath)
			found := search(prev[i], dst, prev[i], root, limit)
			y.unblock(rootPath)
			if !found {
				continue
			}
			y.buf = y.spurPath(append(y.buf[:0], rootPath[:i]...), prev[i], dst)
			if slices.ContainsFunc(paths, y.isBuf) || slices.ContainsFunc(cands, func(c costPath) bool { return y.isBuf(c.path) }) {
				continue
			}
			cands = append(cands, costPath{path: y.take(y.buf), cost: cost(root, y.buf[i:]), dev: i})
			limit = y.limit(cands, k-len(paths))
		}
		if len(cands) == 0 {
			break
		}
		best := 0
		for j := 1; j < len(cands); j++ {
			if cands[j].cheaper(cands[best]) {
				best = j
			}
		}
		paths = append(paths, cands[best].path)
		devs = append(devs, cands[best].dev)
		last := len(cands) - 1
		cands[best] = cands[last]
		cands = cands[:last]
	}
	for i := range cands {
		y.free = append(y.free, cands[i].path)
		cands[i] = costPath{}
	}
	y.cands = cands[:0]
	y.devs = devs
	return paths
}

// limit is the bound paths passes its searches: the r-th cheapest
// pending cost raised by a relative 1e-9, or +Inf with fewer than r.
func (y *yen) limit(cands []costPath, r int) float64 {
	if len(cands) < r {
		return math.Inf(1)
	}
	costs := y.costs[:0]
	for _, c := range cands {
		costs = append(costs, c.cost)
	}
	slices.Sort(costs)
	y.costs = costs
	return costs[r-1] * (1 + 1e-9)
}

// block sets up the spur search at rootPath's last vertex: the next hop
// of every known path sharing rootPath, and the root-path vertices
// before the spur.
func (y *yen) block(paths [][]int, rootPath []int) {
	i := len(rootPath) - 1
	for _, p := range paths {
		if len(p) > i+1 && slices.Equal(p[:i+1], rootPath) && !y.blockedNext[p[i+1]] {
			y.blockedNext[p[i+1]] = true
			y.btargets = append(y.btargets, p[i+1])
		}
	}
	for _, v := range rootPath[:i] {
		y.blockedNode[v] = true
	}
	y.rootNodes = rootPath[:i]
}

// unblock undoes block(…, rootPath).
func (y *yen) unblock(rootPath []int) {
	for _, v := range y.btargets {
		y.blockedNext[v] = false
	}
	y.btargets = y.btargets[:0]
	for _, v := range rootPath[:len(rootPath)-1] {
		y.blockedNode[v] = false
	}
	y.rootNodes = nil
}

// spurPath appends the src→dst path of the last search to buf.
func (y *yen) spurPath(buf []int, src, dst int) []int {
	start := len(buf)
	for v := dst; ; v = y.parent[v] {
		buf = append(buf, v)
		if v == src {
			break
		}
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// isBuf reports whether p is the candidate being assembled.
func (y *yen) isBuf(p []int) bool { return slices.Equal(p, y.buf) }

// take copies p into a recycled candidate buffer, or a new one.
func (y *yen) take(p []int) []int {
	if n := len(y.free); n > 0 {
		b := y.free[n-1]
		y.free = y.free[:n-1]
		return append(b[:0], p...)
	}
	return append([]int(nil), p...)
}

// NewKSPSolver returns a solver over g. The graph may keep growing; the
// scratch resizes on the next call.
func NewKSPSolver(g *Graph) *KSPSolver { return &KSPSolver{g: g} }

// Paths returns up to k loop-free minimum-hop paths from src to dst,
// shortest first, using Yen's algorithm on unit edge weights. Ties are
// broken lexicographically by the vertex sequence so the result is
// deterministic. It returns fewer than k paths when the graph does not
// contain that many simple paths.
func (s *KSPSolver) Paths(src, dst, k int) ([][]int, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := s.g.check(src); err != nil {
		return nil, err
	}
	if err := s.g.check(dst); err != nil {
		return nil, err
	}
	s.resize(s.g.Order())
	paths := s.paths(src, dst, k, s.bfs, hops)
	if paths == nil {
		return nil, ErrNoPath
	}
	return paths, nil
}

func hops(start float64, path []int) float64 { return start + float64(len(path)-1) }

// bfs is KSPSolver's spur search: a minimum-hop path, first-discovered
// parent wins. It searches to the end, whatever the limit.
func (s *KSPSolver) bfs(src, dst, spur int, _, _ float64) bool {
	if s.blockedNode[src] || s.blockedNode[dst] {
		return false
	}
	parent := s.parent
	if src == dst {
		parent[src] = src
		return true
	}
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := append(s.queue[:0], src)
	found := false
	for qi := 0; qi < len(queue) && !found; qi++ {
		u := queue[qi]
		for _, v := range s.g.adj[u] {
			if parent[v] != -1 || s.blockedNode[v] || (u == spur && s.blockedNext[v]) {
				continue
			}
			parent[v] = u
			if found = v == dst; found {
				break
			}
			queue = append(queue, v)
		}
	}
	s.queue = queue[:0]
	return found
}
