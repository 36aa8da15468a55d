package routes

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ubac/internal/topology"
)

func line5(t *testing.T) *topology.Network {
	t.Helper()
	n, err := topology.Line(5, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustRoute(t *testing.T, net *topology.Network, class string, path ...int) Route {
	t.Helper()
	r, err := FromRouterPath(net, class, path)
	if err != nil {
		t.Fatalf("FromRouterPath(%v): %v", path, err)
	}
	return r
}

func TestFromRouterPathAndValidate(t *testing.T) {
	net := line5(t)
	r := mustRoute(t, net, "voice", 0, 1, 2, 3)
	if r.Src != 0 || r.Dst != 3 || r.Hops() != 3 {
		t.Errorf("route = %+v", r)
	}
	if err := r.Validate(net); err != nil {
		t.Errorf("valid route rejected: %v", err)
	}
	if _, err := FromRouterPath(net, "voice", []int{0, 2}); err == nil {
		t.Error("non-adjacent path accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	net := line5(t)
	good := mustRoute(t, net, "v", 0, 1, 2)
	cases := []Route{
		{Src: 0, Dst: 2, Servers: nil},
		{Src: 0, Dst: 2, Servers: []int{999}},
		{Src: 0, Dst: 2, Servers: []int{-1}},
		{Src: 1, Dst: 2, Servers: good.Servers},                                // wrong src
		{Src: 0, Dst: 3, Servers: good.Servers},                                // wrong dst
		{Src: 0, Dst: 2, Servers: []int{good.Servers[0], good.Servers[0]}},     // repeat
		{Src: 0, Dst: 0, Servers: []int{good.Servers[0], good.Servers[0] ^ 1}}, // discontinuity or bad end
		{Src: 0, Dst: 2, Servers: []int{good.Servers[1], good.Servers[0]}},     // disconnected order
	}
	for i, r := range cases {
		if err := r.Validate(net); err == nil {
			t.Errorf("case %d: invalid route accepted: %+v", i, r)
		}
	}
}

func TestSetAddAndIndex(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	if s.Network() != net {
		t.Error("Network() wrong")
	}
	r1 := mustRoute(t, net, "v", 0, 1, 2, 3)
	r2 := mustRoute(t, net, "v", 1, 2, 3, 4)
	if err := s.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Route(0).Src != 0 || s.Route(1).Src != 1 {
		t.Error("routes out of order")
	}
	// Server 1->2 is crossed by both; 0->1 only by r1.
	s12, _ := net.ServerFor(1, 2)
	s01, _ := net.ServerFor(0, 1)
	if s.CrossCount(s12) != 2 || s.CrossCount(s01) != 1 {
		t.Errorf("cross counts: %d, %d", s.CrossCount(s12), s.CrossCount(s01))
	}
	if err := s.Add(Route{Src: 0, Dst: 1, Servers: []int{99}}); err == nil {
		t.Error("invalid route accepted by Add")
	}
}

func TestComputeY(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	if err := s.Add(mustRoute(t, net, "v", 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	d := make([]float64, net.NumServers())
	for i := range d {
		d[i] = 1 // one second per server for easy arithmetic
	}
	y := make([]float64, net.NumServers())
	s.ComputeY(d, y)
	s01, _ := net.ServerFor(0, 1)
	s12, _ := net.ServerFor(1, 2)
	s23, _ := net.ServerFor(2, 3)
	if y[s01] != 0 || y[s12] != 1 || y[s23] != 2 {
		t.Errorf("Y = %g,%g,%g, want 0,1,2", y[s01], y[s12], y[s23])
	}
	// Add a longer upstream path through server 2->3.
	if err := s.Add(mustRoute(t, net, "v", 4, 3, 2, 1, 0)); err != nil {
		t.Fatal(err)
	}
	s.ComputeY(d, y)
	s10, _ := net.ServerFor(1, 0)
	if y[s10] != 3 {
		t.Errorf("Y[1->0] = %g, want 3", y[s10])
	}
}

func TestComputeYLengthPanics(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad slice lengths")
		}
	}()
	s.ComputeY(make([]float64, 1), make([]float64, net.NumServers()))
}

func TestRouteDelayAndMax(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	r1 := mustRoute(t, net, "v", 0, 1, 2)
	r2 := mustRoute(t, net, "v", 0, 1, 2, 3, 4)
	if err := s.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r2); err != nil {
		t.Fatal(err)
	}
	d := make([]float64, net.NumServers())
	for i := range d {
		d[i] = 0.5
	}
	if got := r2.Delay(d); got != 2.0 {
		t.Errorf("delay = %g, want 2", got)
	}
	worst, idx := s.MaxRouteDelay(d)
	if worst != 2.0 || idx != 1 {
		t.Errorf("max = %g at %d", worst, idx)
	}
	empty := NewSet(net)
	if _, idx := empty.MaxRouteDelay(d); idx != -1 {
		t.Error("empty set should return -1")
	}
}

func TestDependencyCycle(t *testing.T) {
	net, err := topology.Ring(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSet(net)
	// Two straight routes: no cycle.
	if err := s.Add(mustRoute(t, net, "v", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mustRoute(t, net, "v", 2, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if s.HasCycle() {
		t.Error("straight routes reported cyclic")
	}
	// A third route extends the chain but still closes no loop.
	if err := s.Add(mustRoute(t, net, "v", 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if s.HasCycle() {
		t.Error("open chain reported cyclic")
	}
	// 3->0->1 adds the arc (3->0)->(0->1), completing the directed ring
	// over servers 0->1, 1->2, 2->3, 3->0.
	closing := mustRoute(t, net, "v", 3, 0, 1)
	if !s.WouldCycle(closing) {
		t.Error("WouldCycle missed feedback")
	}
	if s.HasCycle() {
		t.Error("WouldCycle mutated the set")
	}
	if err := s.Add(closing); err != nil {
		t.Fatal(err)
	}
	if !s.HasCycle() {
		t.Error("cycle not detected after Add")
	}
}

func TestCloneIndependence(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	if err := s.Add(mustRoute(t, net, "v", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Add(mustRoute(t, net, "v", 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || c.Len() != 2 {
		t.Errorf("lens: orig=%d clone=%d", s.Len(), c.Len())
	}
	s23, _ := net.ServerFor(2, 3)
	if s.CrossCount(s23) != 0 {
		t.Error("clone mutated original index")
	}
}

func TestRoutesCopy(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	if err := s.Add(mustRoute(t, net, "v", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	rs := s.Routes()
	rs[0].Src = 99
	if s.Route(0).Src != 0 {
		t.Error("Routes() exposed internal storage")
	}
}

// Property: Y_k is always bounded by the max route delay over the set, and
// ComputeY is monotone in d.
func TestComputeYMonotoneProperty(t *testing.T) {
	net, err := topology.Grid(3, 3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(net)
		rg := net.RouterGraph()
		for i := 0; i < 6; i++ {
			src, dst := rng.Intn(9), rng.Intn(9)
			if src == dst {
				continue
			}
			p, err := rg.ShortestPath(src, dst)
			if err != nil {
				return false
			}
			r, err := FromRouterPath(net, "v", p)
			if err != nil {
				return false
			}
			if err := s.Add(r); err != nil {
				return false
			}
		}
		d1 := make([]float64, net.NumServers())
		d2 := make([]float64, net.NumServers())
		for i := range d1 {
			d1[i] = rng.Float64()
			d2[i] = d1[i] + rng.Float64() // d2 >= d1 pointwise
		}
		y1 := make([]float64, net.NumServers())
		y2 := make([]float64, net.NumServers())
		s.ComputeY(d1, y1)
		s.ComputeY(d2, y2)
		worst1, _ := s.MaxRouteDelay(d1)
		for k := range y1 {
			if y2[k] < y1[k] {
				return false // not monotone
			}
			if y1[k] > worst1 {
				return false // Y exceeds any full route delay
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkComputeY(b *testing.B) {
	net := topology.MCI()
	s := NewSet(net)
	rg := net.RouterGraph()
	for _, p := range net.Pairs() {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		r, err := FromRouterPath(net, "v", path)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	d := make([]float64, net.NumServers())
	y := make([]float64, net.NumServers())
	for i := range d {
		d[i] = 0.001
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ComputeY(d, y)
	}
}

func TestRemoveLastDirect(t *testing.T) {
	net := line5(t)
	s := NewSet(net)
	s.RemoveLast() // empty: no-op
	if err := s.Add(mustRoute(t, net, "v", 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mustRoute(t, net, "v", 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	s.RemoveLast()
	if s.Len() != 1 || s.Route(0).Src != 0 {
		t.Errorf("RemoveLast broke the set: len=%d", s.Len())
	}
	s23, _ := net.ServerFor(2, 3)
	if s.CrossCount(s23) != 0 {
		t.Error("occurrence index not cleaned")
	}
	// The dependency graph must shrink accordingly.
	if s.DependencyGraph().Size() != 1 {
		t.Errorf("dependency arcs = %d, want 1", s.DependencyGraph().Size())
	}
}

// Property: evaluating a candidate as a phantom route is exactly
// equivalent to adding it — the contract the selection heuristics'
// zero-allocation fast path depends on.
func TestPhantomEvaluationEquivalenceProperty(t *testing.T) {
	net, err := topology.Grid(3, 3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	rg := net.RouterGraph()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(net)
		mk := func() (Route, bool) {
			src, dst := rng.Intn(9), rng.Intn(9)
			if src == dst {
				return Route{}, false
			}
			p, err := rg.ShortestPath(src, dst)
			if err != nil {
				return Route{}, false
			}
			r, err := FromRouterPath(net, "v", p)
			if err != nil {
				return Route{}, false
			}
			return r, true
		}
		for i := 0; i < 5; i++ {
			if r, ok := mk(); ok {
				if err := s.Add(r); err != nil {
					return false
				}
			}
		}
		cand, ok := mk()
		if !ok {
			return true
		}
		d := make([]float64, net.NumServers())
		for i := range d {
			d[i] = rng.Float64() * 0.01
		}
		yPhantom := make([]float64, net.NumServers())
		s.ComputeYExtra(d, yPhantom, &cand, nil)
		slackPhantom := s.MinSlackExtra(d, 0.1, 1e-3, &cand)

		if err := s.Add(cand); err != nil {
			return false
		}
		yReal := make([]float64, net.NumServers())
		s.ComputeY(d, yReal)
		slackReal := s.MinSlackExtra(d, 0.1, 1e-3, nil)
		for k := range yReal {
			if yPhantom[k] != yReal[k] {
				return false
			}
		}
		return slackPhantom == slackReal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
