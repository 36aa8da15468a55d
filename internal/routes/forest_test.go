package routes

import (
	"fmt"
	"math/rand"
	"testing"

	"ubac/internal/topology"
)

// perRouteY is Y_k the way it was computed before the prefix forest:
// every route's prefix sums accumulated left to right, route by route.
func perRouteY(s *Set, d []float64, extra *Route) []float64 {
	y := make([]float64, len(d))
	for i := 0; i < s.Len(); i++ {
		accumulateRoute(d, y, s.Route(i).Servers)
	}
	if extra != nil {
		accumulateRoute(d, y, extra.Servers)
	}
	return y
}

// distinctPrefixes counts the distinct server prefixes of the set's
// routes — what the forest must hold, no more and no less.
func distinctPrefixes(s *Set) int {
	seen := make(map[string]bool)
	for i := 0; i < s.Len(); i++ {
		key := ""
		for _, srv := range s.Route(i).Servers {
			key += fmt.Sprintf("%d,", srv)
			seen[key] = true
		}
	}
	return len(seen)
}

// checkForest requires the forest sweep to equal per-route accumulation
// bit for bit, from zero and on top of existing values, and the forest
// to hold exactly the set's distinct prefixes.
func checkForest(t *testing.T, label string, s *Set, d []float64, extra *Route) {
	t.Helper()
	nsrv := len(d)
	want := perRouteY(s, d, extra)
	got := make([]float64, nsrv)
	var buf []float64
	s.ComputeYExtra(d, got, extra, &buf)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: Y[%d] = %.17g, per-route %.17g", label, k, got[k], want[k])
		}
	}
	// AccumulateY does not zero: every entry ends at the larger of what
	// it held and the per-route value.
	held := func(k int) float64 {
		if k%2 == 1 {
			return d[k]
		}
		return want[k] / 2
	}
	for k := range got {
		got[k] = held(k)
	}
	s.AccumulateY(d, got, extra, &buf)
	for k := range want {
		if w := max(held(k), want[k]); got[k] != w {
			t.Fatalf("%s: accumulated Y[%d] = %.17g, want %.17g", label, k, got[k], w)
		}
	}
	total := 0
	for _, tree := range s.trees {
		total += len(tree)
	}
	if n := distinctPrefixes(s); total != n {
		t.Fatalf("%s: forest holds %d prefixes, routes have %d distinct", label, total, n)
	}
}

// The backtracking pattern, at random: Add, RemoveLast and Clone in
// seeded sequences over several independent sets, with delay vectors
// full of ties and zeros. After every step each set's forest sweep must
// equal per-route accumulation bit for bit — a forest that kept a
// removed route's prefixes, or shared them with a clone, fails here.
func TestForestMatchesPerRouteAccumulation(t *testing.T) {
	for _, spec := range []string{"mci", "grid:4x4", "random:20:12:1"} {
		net, err := topology.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		rg := net.RouterGraph()
		nsrv := net.NumServers()
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			route := func() Route {
				for {
					src, dst := rng.Intn(net.NumRouters()), rng.Intn(net.NumRouters())
					if src == dst {
						continue
					}
					paths, err := rg.KShortestPaths(src, dst, 4)
					if err != nil {
						t.Fatal(err)
					}
					r, err := FromRouterPath(net, "v", paths[rng.Intn(len(paths))])
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
			}
			d := make([]float64, nsrv)
			sets := []*Set{NewSet(net)}
			for step := 0; step < 300; step++ {
				i := rng.Intn(len(sets))
				switch op := rng.Intn(10); {
				case op < 6:
					if err := sets[i].Add(route()); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					sets[i].RemoveLast()
				case len(sets) < 3:
					sets = append(sets, sets[i].Clone())
				default:
					sets[i] = sets[i].Clone()
				}
				for k := range d {
					switch rng.Intn(3) {
					case 0:
						d[k] = 0
					case 1:
						d[k] = float64(rng.Intn(3)) * 0.001
					default:
						d[k] = rng.Float64() * 0.01
					}
				}
				var extra *Route
				if rng.Intn(2) == 0 {
					r := route()
					extra = &r
				}
				for j, s := range sets {
					checkForest(t, fmt.Sprintf("%s seed=%d step=%d set=%d", spec, seed, step, j), s, d, extra)
				}
			}
		}
	}
}

// A warm sweep buffer makes the forest sweep allocation-free.
func TestComputeYExtraWarmAllocs(t *testing.T) {
	net := topology.MCI()
	s := NewSet(net)
	rg := net.RouterGraph()
	for _, p := range net.Pairs() {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		r, err := FromRouterPath(net, "v", path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	d := make([]float64, net.NumServers())
	y := make([]float64, net.NumServers())
	for i := range d {
		d[i] = 0.001
	}
	var buf []float64
	extra := s.Route(0)
	if allocs := testing.AllocsPerRun(20, func() { s.ComputeYExtra(d, y, &extra, &buf) }); allocs != 0 {
		t.Fatalf("warm forest sweep allocates %.1f/op", allocs)
	}
}
