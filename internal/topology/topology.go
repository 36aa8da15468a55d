// Package topology implements the paper's network model (Section 3):
// routers connected by duplex links, modeled for delay analysis as a
// graph of output link servers. Each directed link (u → v) is one link
// server of capacity C; all other router components are assumed to
// contribute constant delays that are pre-subtracted from deadlines.
//
// The package provides the reconstructed MCI ISP backbone used in the
// paper's evaluation (Figure 4) together with a family of synthetic
// builders (line, ring, star, tree, grid, random) used by tests and
// supplementary experiments.
package topology

import (
	"fmt"
	"sort"

	"ubac/internal/graph"
)

// RouterKind distinguishes DiffServ edge routers (which police traffic)
// from core routers. In the paper's experiment every router can act as an
// edge router.
type RouterKind int

const (
	// Edge routers sit at the boundary and police incoming flows.
	Edge RouterKind = iota
	// Core routers forward aggregate classes only.
	Core
)

// String returns "edge" or "core".
func (k RouterKind) String() string {
	if k == Edge {
		return "edge"
	}
	return "core"
}

// Router is one node of the network.
type Router struct {
	Name string
	Kind RouterKind
}

// Link is a duplex connection between two routers. Capacity applies to
// each direction independently (two link servers).
type Link struct {
	A, B     int     // router indices
	Capacity float64 // bits/second per direction
}

// Network is an immutable router-level topology. Build one with a
// Builder, a named constructor (MCI, Ring, ...), or Decode.
type Network struct {
	name    string
	routers []Router
	links   []Link

	rg *graph.Graph // router graph (both directions per link)

	// Link-server expansion: server s represents the directed link
	// srvTail[s] -> srvHead[s]. arcSrv[a][j] is the server of the arc
	// from a to rg.Neighbors(a)[j].
	srvTail, srvHead []int
	srvCap           []float64
	arcSrv           [][]int
}

// Builder accumulates routers and links and validates them into a Network.
type Builder struct {
	name    string
	routers []Router
	links   []Link
	index   map[string]int
	err     error
}

// NewBuilder starts a topology with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, index: make(map[string]int)}
}

// Router adds a router and returns its index.
func (b *Builder) Router(name string, kind RouterKind) int {
	if b.err != nil {
		return -1
	}
	if name == "" {
		b.err = fmt.Errorf("topology: empty router name")
		return -1
	}
	if _, dup := b.index[name]; dup {
		b.err = fmt.Errorf("topology: duplicate router %q", name)
		return -1
	}
	b.index[name] = len(b.routers)
	b.routers = append(b.routers, Router{Name: name, Kind: kind})
	return len(b.routers) - 1
}

// Link adds a duplex link between routers a and b with the given capacity
// in bits/second.
func (b *Builder) Link(a, bb int, capacity float64) *Builder {
	if b.err != nil {
		return b
	}
	if a < 0 || a >= len(b.routers) || bb < 0 || bb >= len(b.routers) {
		b.err = fmt.Errorf("topology: link endpoints %d-%d out of range", a, bb)
		return b
	}
	if a == bb {
		b.err = fmt.Errorf("topology: self-link at router %d", a)
		return b
	}
	if capacity <= 0 {
		b.err = fmt.Errorf("topology: non-positive capacity %g", capacity)
		return b
	}
	for _, l := range b.links {
		if (l.A == a && l.B == bb) || (l.A == bb && l.B == a) {
			b.err = fmt.Errorf("topology: duplicate link %d-%d", a, bb)
			return b
		}
	}
	b.links = append(b.links, Link{A: a, B: bb, Capacity: capacity})
	return b
}

// LinkByName adds a duplex link between named routers.
func (b *Builder) LinkByName(a, bb string, capacity float64) *Builder {
	if b.err != nil {
		return b
	}
	ia, ok := b.index[a]
	if !ok {
		b.err = fmt.Errorf("topology: unknown router %q", a)
		return b
	}
	ib, ok := b.index[bb]
	if !ok {
		b.err = fmt.Errorf("topology: unknown router %q", bb)
		return b
	}
	return b.Link(ia, ib, capacity)
}

// Build validates the accumulated topology and returns the Network.
// The router graph must be connected.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.routers) == 0 {
		return nil, fmt.Errorf("topology: no routers")
	}
	n := &Network{
		name:    b.name,
		routers: append([]Router(nil), b.routers...),
		links:   append([]Link(nil), b.links...),
	}
	n.rg = graph.New(len(n.routers))
	for _, l := range n.links {
		if err := n.rg.AddBoth(l.A, l.B); err != nil {
			return nil, fmt.Errorf("topology: %w", err)
		}
	}
	if len(n.routers) > 1 && !n.rg.IsConnected() {
		return nil, fmt.Errorf("topology: network %q is not connected", b.name)
	}
	// Both loops walk the links in order, so each router's servers land
	// in arcSrv in the order its arcs were added to rg.
	n.arcSrv = make([][]int, len(n.routers))
	addServer := func(tail, head int, c float64) {
		n.arcSrv[tail] = append(n.arcSrv[tail], len(n.srvTail))
		n.srvTail = append(n.srvTail, tail)
		n.srvHead = append(n.srvHead, head)
		n.srvCap = append(n.srvCap, c)
	}
	for _, l := range n.links {
		addServer(l.A, l.B, l.Capacity)
		addServer(l.B, l.A, l.Capacity)
	}
	return n, nil
}

// Name returns the topology name.
func (n *Network) Name() string { return n.name }

// NumRouters returns the number of routers.
func (n *Network) NumRouters() int { return len(n.routers) }

// Router returns the i-th router.
func (n *Network) Router(i int) Router { return n.routers[i] }

// RouterByName returns the index of the named router.
func (n *Network) RouterByName(name string) (int, bool) {
	for i, r := range n.routers {
		if r.Name == name {
			return i, true
		}
	}
	return -1, false
}

// Links returns a copy of the duplex link list.
func (n *Network) Links() []Link { return append([]Link(nil), n.links...) }

// RouterGraph returns the undirected router adjacency as a digraph with
// both arcs per link. The caller must not modify it.
func (n *Network) RouterGraph() *graph.Graph { return n.rg }

// NumServers returns the number of link servers (2 per duplex link).
func (n *Network) NumServers() int { return len(n.srvTail) }

// Server returns the directed router pair and capacity of server s.
func (n *Network) Server(s int) (tail, head int, capacity float64) {
	return n.srvTail[s], n.srvHead[s], n.srvCap[s]
}

// ServerCapacity returns the capacity of link server s in bits/second.
func (n *Network) ServerCapacity(s int) float64 { return n.srvCap[s] }

// ServerFor returns the link server carrying traffic from router tail to
// adjacent router head, or (-1, false) when they are not adjacent. It
// scans tail's adjacency list, so it costs O(degree) and no hashing.
func (n *Network) ServerFor(tail, head int) (int, bool) {
	for j, v := range n.rg.Neighbors(tail) {
		if v == head {
			return n.arcSrv[tail][j], true
		}
	}
	return -1, false
}

// ServerName renders server s as "A->B" for diagnostics.
func (n *Network) ServerName(s int) string {
	return n.routers[n.srvTail[s]].Name + "->" + n.routers[n.srvHead[s]].Name
}

// ServersFromRouterPath converts a router-level path to the link-server
// path its packets traverse. The path must be a sequence of adjacent
// routers with at least two entries.
func (n *Network) ServersFromRouterPath(path []int) ([]int, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("topology: path %v too short", path)
	}
	srv := make([]int, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		s, ok := n.ServerFor(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("topology: routers %q and %q are not adjacent",
				n.routers[path[i]].Name, n.routers[path[i+1]].Name)
		}
		srv = append(srv, s)
	}
	return srv, nil
}

// Degree returns the number of links attached to router i.
func (n *Network) Degree(i int) int { return n.rg.OutDegree(i) }

// MaxDegree returns N, the paper's per-router link count, taken as the
// maximum router degree ("the maximum number of links for a router is 6"
// in the MCI experiment).
func (n *Network) MaxDegree() int { return n.rg.MaxOutDegree() }

// Diameter returns L, the router-graph diameter in hops.
func (n *Network) Diameter() int {
	d, _ := n.rg.Diameter()
	return d
}

// EdgeRouters returns the indices of routers that can source/sink flows.
// If no router is explicitly marked Edge, every router acts as an edge
// router (the paper's experimental setting).
func (n *Network) EdgeRouters() []int {
	var edges []int
	for i, r := range n.routers {
		if r.Kind == Edge {
			edges = append(edges, i)
		}
	}
	if len(edges) == 0 {
		edges = make([]int, len(n.routers))
		for i := range edges {
			edges[i] = i
		}
	}
	return edges
}

// Pairs returns every ordered (src, dst) pair of edge routers, sorted
// deterministically.
func (n *Network) Pairs() [][2]int {
	edges := n.EdgeRouters()
	pairs := make([][2]int, 0, len(edges)*(len(edges)-1))
	for _, s := range edges {
		for _, d := range edges {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// UniformCapacity returns the common server capacity if all link servers
// share one, or an error otherwise. The paper's analysis assumes a single
// C; the configuration-time analysis refuses a network where a faster
// link feeds a slower one (delay.NewModel).
func (n *Network) UniformCapacity() (float64, error) {
	if len(n.srvCap) == 0 {
		return 0, fmt.Errorf("topology: no link servers")
	}
	c := n.srvCap[0]
	for _, x := range n.srvCap[1:] {
		if x != c {
			return 0, fmt.Errorf("topology: heterogeneous capacities (%g vs %g)", c, x)
		}
	}
	return c, nil
}

// WithoutLink returns a copy of the network with the duplex link between
// routers a and b removed — the substrate for link-failure analysis. It
// fails if the link does not exist or if removing it disconnects the
// network.
func (n *Network) WithoutLink(a, b int) (*Network, error) {
	if _, ok := n.ServerFor(a, b); !ok {
		return nil, fmt.Errorf("topology: no link between routers %d and %d", a, b)
	}
	nb := NewBuilder(n.name + "-failed")
	for _, r := range n.routers {
		nb.Router(r.Name, r.Kind)
	}
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			continue
		}
		nb.Link(l.A, l.B, l.Capacity)
	}
	return nb.Build()
}
