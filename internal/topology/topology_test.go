package topology

import (
	"bytes"
	"strings"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("t")
	a := b.Router("a", Edge)
	c := b.Router("c", Core)
	b.Link(a, c, 1e6)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "t" || n.NumRouters() != 2 || n.NumServers() != 2 {
		t.Errorf("name=%s routers=%d servers=%d", n.Name(), n.NumRouters(), n.NumServers())
	}
	if n.Router(0).Kind != Edge || n.Router(1).Kind != Core {
		t.Error("router kinds wrong")
	}
	if n.Router(0).Kind.String() != "edge" || n.Router(1).Kind.String() != "core" {
		t.Error("RouterKind.String wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.Router("", Edge) },
		func(b *Builder) { b.Router("a", Edge); b.Router("a", Edge) },
		func(b *Builder) { a := b.Router("a", Edge); b.Link(a, a, 1) },
		func(b *Builder) { a := b.Router("a", Edge); b.Link(a, 99, 1) },
		func(b *Builder) {
			a := b.Router("a", Edge)
			c := b.Router("c", Edge)
			b.Link(a, c, 0)
		},
		func(b *Builder) {
			a := b.Router("a", Edge)
			c := b.Router("c", Edge)
			b.Link(a, c, 1).Link(c, a, 1)
		},
		func(b *Builder) { b.LinkByName("x", "y", 1) },
		func(b *Builder) { b.Router("a", Edge); b.LinkByName("a", "nope", 1) },
	}
	for i, mutate := range cases {
		b := NewBuilder("bad")
		mutate(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: invalid build accepted", i)
		}
	}
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("empty network accepted")
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	b := NewBuilder("disc")
	b.Router("a", Edge)
	b.Router("b", Edge)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("disconnected network accepted: %v", err)
	}
}

// ServerFor finds an arc by its position in the tail's adjacency list;
// it must agree with the (tail, head) → server map it replaced, built
// here from Server, for every router pair of topologies built every way
// (named, generated, parsed, and with a link removed).
func TestServerForMatchesServerMap(t *testing.T) {
	mci := MCI()
	sea, _ := mci.RouterByName("Seattle")
	chi, _ := mci.RouterByName("Chicago")
	failed, err := mci.WithoutLink(sea, chi)
	if err != nil {
		t.Fatal(err)
	}
	nets := []*Network{mci, failed}
	for _, spec := range []string{"nsfnet", "grid:4x3", "random:20:12:1", "ba:30:2:7", "star:6"} {
		n, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	for _, n := range nets {
		srvID := make(map[[2]int]int, n.NumServers())
		for s := 0; s < n.NumServers(); s++ {
			tail, head, _ := n.Server(s)
			srvID[[2]int{tail, head}] = s
		}
		for a := 0; a < n.NumRouters(); a++ {
			for b := 0; b < n.NumRouters(); b++ {
				want, wantOK := srvID[[2]int{a, b}]
				got, ok := n.ServerFor(a, b)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("%s: ServerFor(%d, %d) = %d, %v; want %d, %v", n.Name(), a, b, got, ok, want, wantOK)
				}
			}
		}
	}
}

func TestServersAndPaths(t *testing.T) {
	n, err := Line(3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumServers() != 4 {
		t.Fatalf("servers = %d, want 4", n.NumServers())
	}
	s01, ok := n.ServerFor(0, 1)
	if !ok {
		t.Fatal("no server 0->1")
	}
	tail, head, c := n.Server(s01)
	if tail != 0 || head != 1 || c != 1e6 {
		t.Errorf("server = %d->%d cap %g", tail, head, c)
	}
	if n.ServerCapacity(s01) != 1e6 {
		t.Error("ServerCapacity wrong")
	}
	if _, ok := n.ServerFor(0, 2); ok {
		t.Error("non-adjacent server found")
	}
	path, err := n.ServersFromRouterPath([]int{0, 1, 2})
	if err != nil || len(path) != 2 {
		t.Fatalf("path = %v err=%v", path, err)
	}
	if n.ServerName(path[0]) != "r0->r1" {
		t.Errorf("ServerName = %s", n.ServerName(path[0]))
	}
	if _, err := n.ServersFromRouterPath([]int{0}); err == nil {
		t.Error("short path accepted")
	}
	if _, err := n.ServersFromRouterPath([]int{0, 2}); err == nil {
		t.Error("non-adjacent path accepted")
	}
}

func TestMCIInvariants(t *testing.T) {
	n := MCI()
	if n.NumRouters() != 19 {
		t.Errorf("routers = %d, want 19", n.NumRouters())
	}
	// The two published invariants the paper's analysis depends on.
	if d := n.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4 (paper, Section 6)", d)
	}
	if md := n.MaxDegree(); md != 6 {
		t.Errorf("max degree = %d, want 6 (paper, Section 6)", md)
	}
	if c, err := n.UniformCapacity(); err != nil || c != 100e6 {
		t.Errorf("capacity = %g err=%v, want 100 Mb/s", c, err)
	}
	if got := len(n.Pairs()); got != 19*18 {
		t.Errorf("pairs = %d, want 342", got)
	}
	if got := len(n.EdgeRouters()); got != 19 {
		t.Errorf("edge routers = %d, want 19 (all routers act as edges)", got)
	}
	if _, ok := n.RouterByName("Chicago"); !ok {
		t.Error("Chicago missing")
	}
	if _, ok := n.RouterByName("Gotham"); ok {
		t.Error("RouterByName returned a nonexistent router")
	}
}

func TestBuilders(t *testing.T) {
	tests := []struct {
		name              string
		build             func() (*Network, error)
		routers, diameter int
	}{
		{"line5", func() (*Network, error) { return Line(5, 1e6) }, 5, 4},
		{"ring6", func() (*Network, error) { return Ring(6, 1e6) }, 6, 3},
		{"star4", func() (*Network, error) { return Star(4, 1e6) }, 5, 2},
		{"grid3x3", func() (*Network, error) { return Grid(3, 3, 1e6) }, 9, 4},
		{"tree2x2", func() (*Network, error) { return Tree(2, 2, 1e6) }, 7, 4},
	}
	for _, tc := range tests {
		n, err := tc.build()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if n.NumRouters() != tc.routers {
			t.Errorf("%s: routers = %d, want %d", tc.name, n.NumRouters(), tc.routers)
		}
		if d := n.Diameter(); d != tc.diameter {
			t.Errorf("%s: diameter = %d, want %d", tc.name, d, tc.diameter)
		}
	}
}

func TestBuilderRejections(t *testing.T) {
	if _, err := Line(1, 1); err == nil {
		t.Error("Line(1) accepted")
	}
	if _, err := Ring(2, 1); err == nil {
		t.Error("Ring(2) accepted")
	}
	if _, err := Star(1, 1); err == nil {
		t.Error("Star(1) accepted")
	}
	if _, err := Grid(1, 3, 1); err == nil {
		t.Error("Grid(1,3) accepted")
	}
	if _, err := Tree(1, 2, 1); err == nil {
		t.Error("Tree(1,2) accepted")
	}
	if _, err := Random(1, 0, 1, 0); err == nil {
		t.Error("Random(1) accepted")
	}
}

func TestStarEdgeRouters(t *testing.T) {
	n, err := Star(4, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	edges := n.EdgeRouters()
	if len(edges) != 4 {
		t.Errorf("star edge routers = %d, want 4 (hub is core)", len(edges))
	}
	for _, e := range edges {
		if n.Router(e).Kind != Edge {
			t.Errorf("router %d not edge", e)
		}
	}
	// Pairs exclude the hub.
	if got := len(n.Pairs()); got != 4*3 {
		t.Errorf("pairs = %d, want 12", got)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(12, 6, 1e6, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(12, 6, 1e6, 99)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatalf("link counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("links differ at %d: %v vs %v", i, la[i], lb[i])
		}
	}
	c, err := Random(12, 6, 1e6, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Links()) == len(la) {
		same := true
		lc := c.Links()
		for i := range la {
			if la[i] != lc[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical networks")
		}
	}
}

func TestUniformCapacityHeterogeneous(t *testing.T) {
	b := NewBuilder("het")
	x := b.Router("x", Edge)
	y := b.Router("y", Edge)
	z := b.Router("z", Edge)
	b.Link(x, y, 1e6).Link(y, z, 2e6)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.UniformCapacity(); err == nil {
		t.Error("heterogeneous capacities accepted as uniform")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := MCI()
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != orig.Name() || back.NumRouters() != orig.NumRouters() ||
		back.NumServers() != orig.NumServers() {
		t.Errorf("round trip changed shape: %s %d %d", back.Name(), back.NumRouters(), back.NumServers())
	}
	if back.Diameter() != orig.Diameter() || back.MaxDegree() != orig.MaxDegree() {
		t.Error("round trip changed graph metrics")
	}
	for i := 0; i < orig.NumRouters(); i++ {
		if back.Router(i) != orig.Router(i) {
			t.Errorf("router %d differs", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(strings.NewReader(`{"name":"x","routers":[{"name":"a","kind":"alien"}],"links":[]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Decode(strings.NewReader(`{"name":"x","routers":[{"name":"a","kind":"edge"},{"name":"b"}],"links":[{"a":"a","b":"b","capacity_bps":1000}]}`)); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

func TestWithoutLink(t *testing.T) {
	n := MCI()
	sea, _ := n.RouterByName("Seattle")
	chi, _ := n.RouterByName("Chicago")
	survivor, err := n.WithoutLink(sea, chi)
	if err != nil {
		t.Fatal(err)
	}
	if survivor.NumRouters() != n.NumRouters() {
		t.Error("routers changed")
	}
	if len(survivor.Links()) != len(n.Links())-1 {
		t.Errorf("links = %d, want %d", len(survivor.Links()), len(n.Links())-1)
	}
	if _, ok := survivor.ServerFor(sea, chi); ok {
		t.Error("failed link still present")
	}
	// Original untouched.
	if _, ok := n.ServerFor(sea, chi); !ok {
		t.Error("original mutated")
	}
	mia, _ := n.RouterByName("Miami")
	if _, err := n.WithoutLink(sea, mia); err == nil {
		t.Error("nonexistent link accepted")
	}
	// Disconnecting removal rejected.
	line, err := Line(3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := line.WithoutLink(0, 1); err == nil {
		t.Error("disconnecting removal accepted")
	}
}
