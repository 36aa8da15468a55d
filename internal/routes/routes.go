// Package routes represents flow routes as link-server paths and
// implements the upstream-delay machinery of the delay analysis: the set
// S_k of upstream path prefixes for flows traversing server k and the
// worst accumulated upstream delay Y_k of Equation (6), plus the
// route-union cycle analysis used by the safe route selection heuristic
// (Section 5.2: routes that form cycles feed delays back into the Y_k
// recursion and should be avoided).
package routes

import (
	"fmt"

	"ubac/internal/graph"
	"ubac/internal/topology"
)

// Route is the path of one source/destination pair: an ordered list of
// link servers from the paper's server graph. Class names the traffic
// class the route carries (all pairs share one class in the two-class
// experiments; multi-class configurations route each class separately).
type Route struct {
	Src, Dst int    // edge routers
	Class    string // traffic class carried
	Servers  []int  // link-server path, in traversal order
}

// Validate checks the route against the network: the server path must be
// non-empty, connected tail-to-head, start at Src, end at Dst, and visit
// no server twice.
func (r Route) Validate(net *topology.Network) error {
	if len(r.Servers) == 0 {
		return fmt.Errorf("routes: empty server path for %d->%d", r.Src, r.Dst)
	}
	if r.Src == r.Dst {
		return fmt.Errorf("routes: route from router %d to itself", r.Src)
	}
	seen := make(map[int]bool, len(r.Servers))
	for i, s := range r.Servers {
		if s < 0 || s >= net.NumServers() {
			return fmt.Errorf("routes: server %d out of range", s)
		}
		if seen[s] {
			return fmt.Errorf("routes: server %d repeated", s)
		}
		seen[s] = true
		tail, head, _ := net.Server(s)
		if i == 0 && tail != r.Src {
			return fmt.Errorf("routes: path starts at router %d, want %d", tail, r.Src)
		}
		if i == len(r.Servers)-1 && head != r.Dst {
			return fmt.Errorf("routes: path ends at router %d, want %d", head, r.Dst)
		}
		if i > 0 {
			_, prevHead, _ := net.Server(r.Servers[i-1])
			if prevHead != tail {
				return fmt.Errorf("routes: discontinuity between servers %d and %d", r.Servers[i-1], s)
			}
		}
	}
	return nil
}

// Hops returns the number of link servers the route traverses.
func (r Route) Hops() int { return len(r.Servers) }

// occurrence records that a route passes through a server at a position.
type occurrence struct {
	route int // index into Set.routes
	pos   int // index into Route.Servers
}

// prefix is one distinct route prefix in a Set's prefix forest: the
// prefix ending at server srv whose one-shorter prefix sits at position
// parent of the same tree (-1 for a tree's one-server root).
type prefix struct {
	srv, parent int
}

// Set is a collection of routes over one network with an index from each
// link server to the routes crossing it. The zero value is not usable;
// create with NewSet.
type Set struct {
	net    *topology.Network
	routes []Route
	users  [][]occurrence // per server
	// trees is the forest of distinct route prefixes that ComputeY*
	// sweep: trees[f] lists the prefixes of the routes whose first
	// server is f, in insertion order (so parents precede children).
	// Routes sharing a prefix share its node, so a sweep visits each
	// distinct prefix once instead of each route hop. added[i] counts
	// the nodes route i's Add appended; RemoveLast pops them, and since
	// removal is last-in first-out they are always their tree's tail.
	trees [][]prefix
	added []int
	// dep is the cached dependency graph over link servers, built lazily
	// by DependencyGraph and maintained incrementally by Add/RemoveLast
	// through depCount, the multiplicity of each consecutive-server arc
	// across all routes (an arc leaves dep when its count drops to 0).
	dep      *graph.Graph
	depCount map[[2]int]int
}

// NewSet returns an empty route set over the network.
func NewSet(net *topology.Network) *Set {
	return &Set{net: net, users: make([][]occurrence, net.NumServers()), trees: make([][]prefix, net.NumServers())}
}

// Network returns the network the set routes over.
func (s *Set) Network() *topology.Network { return s.net }

// Len returns the number of routes.
func (s *Set) Len() int { return len(s.routes) }

// Route returns the i-th route.
func (s *Set) Route(i int) Route { return s.routes[i] }

// Routes returns a copy of the route list.
func (s *Set) Routes() []Route {
	out := make([]Route, len(s.routes))
	copy(out, s.routes)
	return out
}

// Add validates the route and appends it to the set.
func (s *Set) Add(r Route) error {
	if err := r.Validate(s.net); err != nil {
		return err
	}
	idx := len(s.routes)
	s.routes = append(s.routes, r)
	for pos, srv := range r.Servers {
		s.users[srv] = append(s.users[srv], occurrence{route: idx, pos: pos})
	}
	s.added = append(s.added, s.addPrefixes(r.Servers))
	if s.dep != nil {
		s.depAdd(r)
	}
	return nil
}

// addPrefixes walks the route's prefixes down its tree, appending the
// ones not yet present, and returns how many it appended.
func (s *Set) addPrefixes(servers []int) int {
	t := s.trees[servers[0]]
	n := len(t)
	at := -1
	for _, srv := range servers {
		next := -1
		for j := at + 1; j < len(t); j++ { // children follow their parent
			if t[j].parent == at && t[j].srv == srv {
				next = j
				break
			}
		}
		if next < 0 {
			t = append(t, prefix{srv: srv, parent: at})
			next = len(t) - 1
		}
		at = next
	}
	s.trees[servers[0]] = t
	return len(t) - n
}

// RemoveLast removes the most recently added route, undoing the matching
// Add. It supports the tentative-add/rollback pattern of the route
// selection heuristic. Calling it on an empty set is a no-op.
func (s *Set) RemoveLast() {
	if len(s.routes) == 0 {
		return
	}
	last := len(s.routes) - 1
	for _, srv := range s.routes[last].Servers {
		occ := s.users[srv]
		// The last route's occurrences are necessarily the tail entries of
		// each touched server's user list.
		if len(occ) == 0 || occ[len(occ)-1].route != last {
			panic("routes: index corrupted in RemoveLast")
		}
		s.users[srv] = occ[:len(occ)-1]
	}
	if s.dep != nil {
		s.depRemove(s.routes[last])
	}
	f := s.routes[last].Servers[0]
	s.trees[f] = s.trees[f][:len(s.trees[f])-s.added[last]]
	s.added = s.added[:last]
	s.routes = s.routes[:last]
}

// depAdd bumps the arc counts of r's consecutive-server arcs, adding
// newly seen arcs to the cached dependency graph.
func (s *Set) depAdd(r Route) {
	for i := 0; i+1 < len(r.Servers); i++ {
		a := [2]int{r.Servers[i], r.Servers[i+1]}
		if s.depCount[a] == 0 {
			if err := s.dep.AddEdge(a[0], a[1]); err != nil {
				panic("routes: dependency graph: " + err.Error())
			}
		}
		s.depCount[a]++
	}
}

// depRemove undoes depAdd, dropping arcs whose count reaches zero.
func (s *Set) depRemove(r Route) {
	for i := 0; i+1 < len(r.Servers); i++ {
		a := [2]int{r.Servers[i], r.Servers[i+1]}
		s.depCount[a]--
		if s.depCount[a] == 0 {
			s.dep.RemoveEdge(a[0], a[1])
		}
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet(s.net)
	for _, r := range s.routes {
		rc := r
		rc.Servers = append([]int(nil), r.Servers...)
		idx := len(c.routes)
		c.routes = append(c.routes, rc)
		for pos, srv := range rc.Servers {
			c.users[srv] = append(c.users[srv], occurrence{route: idx, pos: pos})
		}
	}
	for f, t := range s.trees {
		c.trees[f] = append([]prefix(nil), t...)
	}
	c.added = append([]int(nil), s.added...)
	return c
}

// UsedServers returns the servers crossed by at least one route.
func (s *Set) UsedServers() []int {
	var used []int
	for srv, occ := range s.users {
		if len(occ) > 0 {
			used = append(used, srv)
		}
	}
	return used
}

// CrossCount returns how many routes traverse server srv.
func (s *Set) CrossCount(srv int) int { return len(s.users[srv]) }

// ComputeY fills y with Y_k of Equation (6) for every server: the maximum
// over routes through k of the summed per-server delay bounds d along the
// route's prefix strictly before k. Servers crossed by no route get 0.
// len(d) and len(y) must equal the network's server count. The slices may
// not alias.
func (s *Set) ComputeY(d, y []float64) {
	s.ComputeYExtra(d, y, nil, nil)
}

// ComputeYExtra is ComputeY over the set plus one phantom route that is
// not (yet) a member — the way to evaluate a candidate route without
// mutating the set. extra may be nil. buf is the sweep's scratch (see
// AccumulateY); with a non-nil buf a warm call does not allocate.
func (s *Set) ComputeYExtra(d, y []float64, extra *Route, buf *[]float64) {
	if len(d) != s.net.NumServers() || len(y) != s.net.NumServers() {
		panic("routes: ComputeY slice length mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	s.AccumulateY(d, y, extra, buf)
}

// AccumulateY is ComputeYExtra without zeroing y first: it raises each
// y_k to the Y_k contribution of the set's routes plus extra (if
// non-nil), leaving larger entries alone. A caller that zeroes only
// the servers it tracks uses it to skip the rest.
//
// Each prefix's sum is its parent's plus the parent's last server delay
// — the same float additions, in the same order, as summing each route
// left to right — so the forest sweep equals per-route accumulation bit
// for bit while visiting each shared prefix once. buf holds the
// per-prefix sums of one tree; it grows as needed and is kept for the
// next call. A nil buf allocates per call.
func (s *Set) AccumulateY(d, y []float64, extra *Route, buf *[]float64) {
	if buf == nil {
		buf = new([]float64)
	}
	for _, t := range s.trees {
		if len(t) > cap(*buf) {
			*buf = make([]float64, len(t))
		}
		// through[j] is the delay through prefix j, its last server
		// included: the upstream delay its children see.
		through := (*buf)[:len(t)]
		for j, p := range t {
			up := 0.0
			if p.parent >= 0 {
				up = through[p.parent]
			}
			if up > y[p.srv] {
				y[p.srv] = up
			}
			through[j] = up + d[p.srv]
		}
	}
	if extra != nil {
		accumulateRoute(d, y, extra.Servers)
	}
}

func accumulateRoute(d, y []float64, servers []int) {
	prefix := 0.0
	for _, srv := range servers {
		if prefix > y[srv] {
			y[srv] = prefix
		}
		prefix += d[srv]
	}
}

// MaxRouteDelay returns the largest end-to-end delay bound over all
// routes, given per-server bounds d, together with the index of the
// worst route (-1 if the set is empty).
func (s *Set) MaxRouteDelay(d []float64) (float64, int) {
	worst, worstIdx := 0.0, -1
	for i, r := range s.routes {
		if v := r.Delay(d); v > worst || worstIdx == -1 {
			worst, worstIdx = v, i
		}
	}
	return worst, worstIdx
}

// MaxRouteDelayExtra is MaxRouteDelay over the set plus one phantom
// route (index len(Set) if the phantom is the worst). extra may be nil.
func (s *Set) MaxRouteDelayExtra(d []float64, extra *Route) (float64, int) {
	worst, worstIdx := s.MaxRouteDelay(d)
	if extra != nil {
		if v := extra.Delay(d); v > worst || worstIdx == -1 {
			worst, worstIdx = v, len(s.routes)
		}
	}
	return worst, worstIdx
}

// MinSlackExtra returns the minimum deadline slack over the set plus an
// optional phantom route, charging perHop seconds of constant delay per
// hop on top of the queueing bounds d:
//
//	slack_i = deadline − (Delay_i(d) + Hops_i·perHop).
//
// The returned index identifies the binding route (len(Set) for the
// phantom, -1 for an empty set, whose slack is +deadline by convention).
func (s *Set) MinSlackExtra(d []float64, deadline, perHop float64, extra *Route) (float64, int) {
	min, minIdx := deadline, -1
	for i := range s.routes {
		sl := s.routes[i].Slack(d, deadline, perHop)
		if sl < min || minIdx == -1 {
			min, minIdx = sl, i
		}
	}
	if extra != nil {
		sl := extra.Slack(d, deadline, perHop)
		if sl < min || minIdx == -1 {
			min, minIdx = sl, len(s.routes)
		}
	}
	return min, minIdx
}

// Delay returns the end-to-end delay bound of the route: the sum of the
// per-server bounds along its path (Section 5.1, Step 2).
func (r Route) Delay(d []float64) float64 {
	sum := 0.0
	for _, srv := range r.Servers {
		sum += d[srv]
	}
	return sum
}

// Slack returns the route's deadline slack under per-server bounds d,
// deadline − (Delay(d) + Hops·perHop). MinSlackExtra and the route
// selection's pre-solve bound both compute it here, so they round alike.
func (r Route) Slack(d []float64, deadline, perHop float64) float64 {
	return deadline - r.Delay(d) - float64(len(r.Servers))*perHop
}

// DependencyGraph returns the digraph over link servers whose arcs join
// consecutive servers of every route. Cycles in this graph are exactly
// the "feedback in the queuing of packets" the selection heuristic
// minimizes (Section 5.2, heuristic 2).
//
// The graph is built on first call and then maintained incrementally by
// Add and RemoveLast, so the per-pair cost inside selection loops is
// O(route hops) instead of O(set hops). It is owned by the set: callers
// must treat it as read-only (Clone it before mutating) and must not
// hold it across Add/RemoveLast if they need a snapshot.
func (s *Set) DependencyGraph() *graph.Graph {
	if s.dep == nil {
		s.dep = graph.New(s.net.NumServers())
		s.depCount = make(map[[2]int]int)
		for _, r := range s.routes {
			s.depAdd(r)
		}
	}
	return s.dep
}

// HasCycle reports whether the route union contains dependency feedback.
func (s *Set) HasCycle() bool { return s.DependencyGraph().HasCycle() }

// WouldCycle reports whether adding the candidate route would make the
// dependency graph cyclic, without mutating the set. When testing many
// candidates against the same set, build the graph once with
// DependencyGraph and use WouldCycleOn instead.
func (s *Set) WouldCycle(candidate Route) bool {
	return WouldCycleOn(s.DependencyGraph(), candidate)
}

// WouldCycleOn reports whether adding the candidate's arcs to a prebuilt
// dependency graph (from DependencyGraph of the same set) closes a
// cycle. dep is not modified — the candidate's arcs are overlaid
// virtually, so testing many candidates against one set needs no
// cloning.
func WouldCycleOn(dep *graph.Graph, candidate Route) bool {
	if len(candidate.Servers) < 2 {
		return dep.HasCycle()
	}
	arcs := make([][2]int, 0, len(candidate.Servers)-1)
	for i := 0; i+1 < len(candidate.Servers); i++ {
		arcs = append(arcs, [2]int{candidate.Servers[i], candidate.Servers[i+1]})
	}
	return dep.HasCycleWithArcs(arcs)
}

// FromRouterPath builds a Route for the given class from a router-level
// path using the network's link servers.
func FromRouterPath(net *topology.Network, class string, path []int) (Route, error) {
	srv, err := net.ServersFromRouterPath(path)
	if err != nil {
		return Route{}, err
	}
	return Route{Src: path[0], Dst: path[len(path)-1], Class: class, Servers: srv}, nil
}
