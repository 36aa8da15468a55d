package graph

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
	blockedNext []bool
	btargets    []int      // targets set in blockedNext, for O(set) reset
	parent      []int      // the last spur search's tree, parent[src] = src
	buf         []int      // the candidate being assembled
	cands       []costPath // candidates not yet taken
	free        [][]int    // buffers of candidates a previous call left behind
}

// costPath is a Yen candidate with its cost, computed once.
type costPath struct {
	path []int
	cost float64
}

// cheaper is the candidate order: cost, then the vertex sequence. Yen's
// candidates are distinct paths, so this is a total order and the
// cheapest candidate is unique — taking it equals sorting the candidates
// and taking the head.
func (a costPath) cheaper(b costPath) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return lessPath(a.path, b.path)
}

func (y *yen) resize(n int) {
	if len(y.parent) != n {
		y.parent = make([]int, n)
		y.blockedNode = make([]bool, n)
		y.blockedNext = make([]bool, n)
	}
}

// paths runs Yen's algorithm for up to k paths from src to dst, cheapest
// by cost first. search(src, dst, spur) must find a path avoiding the
// blocked vertices and — when spur >= 0 — the blocked arcs out of spur,
// leave it in y.parent and report whether it found one. It returns nil
// when there is no first path.
func (y *yen) paths(src, dst, k int, search func(src, dst, spur int) bool, cost func(path []int) float64) [][]int {
	if !search(src, dst, -1) {
		return nil
	}
	y.buf = y.spurPath(y.buf[:0], src, dst)
	paths := make([][]int, 1, min(k, 8)) // route selection asks for 8
	paths[0] = y.take(y.buf)
	cands := y.cands[:0]
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// For each spur node in the previous path, search for a deviation.
		for i := 0; i < len(prev)-1; i++ {
			rootPath := prev[:i+1]
			y.block(paths, rootPath)
			found := search(prev[i], dst, prev[i])
			y.unblock(rootPath)
			if !found {
				continue
			}
			y.buf = y.spurPath(append(y.buf[:0], rootPath[:i]...), prev[i], dst)
			if containsPath(paths, y.buf) || containsCand(cands, y.buf) {
				continue
			}
			cands = append(cands, costPath{path: y.take(y.buf), cost: cost(y.buf)})
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
		last := len(cands) - 1
		cands[best] = cands[last]
		cands = cands[:last]
	}
	for i := range cands {
		y.free = append(y.free, cands[i].path)
		cands[i] = costPath{}
	}
	y.cands = cands[:0]
	return paths
}

// block sets up the spur search at rootPath's last vertex: the next hop
// of every known path sharing rootPath, and the root-path vertices
// before the spur.
func (y *yen) block(paths [][]int, rootPath []int) {
	i := len(rootPath) - 1
	for _, p := range paths {
		if len(p) > i+1 && equalPrefix(p, rootPath) && !y.blockedNext[p[i+1]] {
			y.blockedNext[p[i+1]] = true
			y.btargets = append(y.btargets, p[i+1])
		}
	}
	for _, v := range rootPath[:i] {
		y.blockedNode[v] = true
	}
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

// take copies p into a recycled candidate buffer, or a new one.
func (y *yen) take(p []int) []int {
	if n := len(y.free); n > 0 {
		b := y.free[n-1]
		y.free = y.free[:n-1]
		return append(b[:0], p...)
	}
	return append([]int(nil), p...)
}

func containsCand(cands []costPath, p []int) bool {
	for i := range cands {
		if equalPath(cands[i].path, p) {
			return true
		}
	}
	return false
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

func hops(path []int) float64 { return float64(len(path)) }

// bfs is KSPSolver's spur search: a minimum-hop path, first-discovered
// parent wins.
func (s *KSPSolver) bfs(src, dst, spur int) bool {
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

// KShortestPaths returns up to k loop-free minimum-hop paths from src to
// dst, shortest first (see KSPSolver.Paths). Callers issuing many queries
// over the same graph should hold a KSPSolver instead to reuse its
// scratch buffers.
func (g *Graph) KShortestPaths(src, dst, k int) ([][]int, error) {
	return NewKSPSolver(g).Paths(src, dst, k)
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func containsPath(set [][]int, p []int) bool {
	for _, q := range set {
		if equalPath(q, p) {
			return true
		}
	}
	return false
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessPath(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
