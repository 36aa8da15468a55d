package delay

import (
	"math"
	"math/rand"
	"testing"

	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

func chainEntry(t *testing.T, net *topology.Network, n int) []Entry {
	t.Helper()
	path := make([]int, net.NumRouters())
	for i := range path {
		path[i] = i
	}
	r, err := routes.FromRouterPath(net, "voice", path)
	if err != nil {
		t.Fatal(err)
	}
	return []Entry{{Bucket: traffic.Voice().Bucket, Route: r, Count: n}}
}

func TestSolveFlowAwareValidation(t *testing.T) {
	m, net := lineModel(t, 3)
	if _, err := m.SolveFlowAware(nil); err == nil {
		t.Error("empty population accepted")
	}
	bad := chainEntry(t, net, 1)
	bad[0].Bucket.Rate = 0
	if _, err := m.SolveFlowAware(bad); err == nil {
		t.Error("invalid bucket accepted")
	}
	for _, n := range []int{0, -3} {
		if _, err := m.SolveFlowAware(chainEntry(t, net, n)); err == nil {
			t.Errorf("count %d accepted", n)
		}
	}
	foreign, err := topology.Line(4, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SolveFlowAware(chainEntry(t, foreign, 1)); err == nil {
		t.Error("foreign route accepted")
	}
}

func TestSolveFlowAwareOverload(t *testing.T) {
	m, net := lineModel(t, 3)
	// 100 Mb/s link, flows of 32 kb/s: > 3125 flows overload it.
	if _, err := m.SolveFlowAware(chainEntry(t, net, 3200)); err == nil {
		t.Error("overloaded population accepted")
	}
}

func TestSolveFlowAwareSingleFlowZeroQueueing(t *testing.T) {
	// One flow through one input link per server: the aggregate can never
	// exceed the service rate, so queueing is zero.
	m, net := lineModel(t, 4)
	res, err := m.SolveFlowAware(chainEntry(t, net, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.MaxServerDelay() > 1e-15 {
		t.Errorf("single flow queued: %g", res.MaxServerDelay())
	}
}

func TestSolveFlowAwareHandComputed(t *testing.T) {
	// Two flows converging from different routers onto the shared server
	// 1->2 of a Y: line 0-1-2 plus router 3 attached to 1.
	b := topology.NewBuilder("y")
	r0 := b.Router("r0", topology.Edge)
	r1 := b.Router("r1", topology.Edge)
	r2 := b.Router("r2", topology.Edge)
	r3 := b.Router("r3", topology.Edge)
	b.Link(r0, r1, 100e6).Link(r1, r2, 100e6).Link(r3, r1, 100e6)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(net)
	mk := func(path ...int) Entry {
		r, err := routes.FromRouterPath(net, "v", path)
		if err != nil {
			t.Fatal(err)
		}
		return Entry{Bucket: traffic.Voice().Bucket, Route: r, Count: 1}
	}
	res, err := m.SolveFlowAware([]Entry{mk(0, 1, 2), mk(3, 1, 2)})
	if err != nil || !res.Converged {
		t.Fatal(err)
	}
	// At server 1->2 two single-flow input links collide. Worst backlog:
	// both bursts arrive at line rate; d = sup_I(2·min(CI, T+ρI) − CI)/C.
	// At the bucket breakpoint τ = T/(C−ρ) both terms equal T+ρτ, so
	// backlog = 2(T+ρτ) − Cτ and d = that / C.
	T, rho, C := 640.0, 32e3, 100e6
	tau := T / (C - rho)
	want := (2*(T+rho*tau) - C*tau) / C
	s12, _ := net.ServerFor(r1, r2)
	if math.Abs(res.D[s12]-want) > 1e-12 {
		t.Errorf("converging flows: d = %g, want %g", res.D[s12], want)
	}
	// Upstream servers see one flow each: zero queueing.
	s01, _ := net.ServerFor(r0, r1)
	if res.D[s01] != 0 {
		t.Errorf("upstream server queued: %g", res.D[s01])
	}
	// Per-entry bounds: d at the shared hop only.
	for e, pe := range res.PerEntry {
		if math.Abs(pe-want) > 1e-12 {
			t.Errorf("entry %d bound = %g, want %g", e, pe, want)
		}
	}
}

// shortestPathRoutes returns the shortest-path route of every ordered
// edge pair.
func shortestPathRoutes(t testing.TB, net *topology.Network) []routes.Route {
	t.Helper()
	rg := net.RouterGraph()
	var out []routes.Route
	for _, p := range net.Pairs() {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		r, err := routes.FromRouterPath(net, "voice", path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// The central soundness property: for any population admitted within the
// per-server αC/ρ limit, the flow-aware bound never exceeds the
// configuration-time bound (Theorems 1-3 assume the worst placement and
// the worst upstream jitter; reality can only be better).
func TestFlowAwareNeverExceedsConfigurationBound(t *testing.T) {
	net := topology.MCI()
	m := NewModel(net)
	voice := traffic.Voice()

	// Population: one flow per ordered pair over shortest paths, with
	// alpha just large enough to cover the densest server.
	var entries []Entry
	rs := routes.NewSet(net)
	for _, r := range shortestPathRoutes(t, net) {
		if err := rs.Add(r); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{Bucket: voice.Bucket, Route: r, Count: 1})
	}
	// The busiest server carries max CrossCount flows; size alpha to it.
	maxCross := 0
	for s := 0; s < net.NumServers(); s++ {
		if c := rs.CrossCount(s); c > maxCross {
			maxCross = c
		}
	}
	alpha := float64(maxCross) * voice.Bucket.Rate / topology.DefaultCapacity
	cfg, err := m.SolveTwoClass(ClassInput{Class: voice, Alpha: alpha, Routes: rs})
	if err != nil || !cfg.Converged {
		t.Fatalf("configuration bound: %v", err)
	}
	fa, err := m.SolveFlowAware(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !fa.Converged {
		t.Fatal("flow-aware diverged")
	}
	for s := 0; s < net.NumServers(); s++ {
		if fa.D[s] > cfg.D[s]+1e-9 {
			t.Errorf("server %s: flow-aware %g exceeds configuration bound %g",
				net.ServerName(s), fa.D[s], cfg.D[s])
		}
	}
	worstCfg, _ := rs.MaxRouteDelay(cfg.D)
	if fa.MaxEntryDelay() > worstCfg+1e-9 {
		t.Errorf("flow-aware e2e %g exceeds configuration %g", fa.MaxEntryDelay(), worstCfg)
	}
	t.Logf("aggregation penalty at this population: config %.3f ms vs flow-aware %.3f ms (%.1fx)",
		worstCfg*1e3, fa.MaxEntryDelay()*1e3, worstCfg/fa.MaxEntryDelay())
}

// The per-server step evaluates the summed input-link curve at each
// link's breakpoint; it must equal the exhaustive oracle (every pairwise
// line crossing) on any stable link set, whatever each link's
// capacity, and with links shifted by upstream delay (a > 0), as the
// multi-class step shifts the higher classes.
func TestServerBacklogMatchesCurveSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const c = 100e6
	shifted := 0
	for trial := 0; trial < 2000; trial++ {
		links := make([]piece, 1+rng.Intn(8))
		rateLeft := c * 0.98
		for j := range links {
			capacity := []float64{c, c / 10, 10 * c, c * (0.05 + 2*rng.Float64())}[rng.Intn(4)]
			rate := rng.Float64() * math.Min(capacity, rateLeft) * 0.9
			rateLeft -= rate
			l := piece{cap: capacity, A: rng.Float64()*1e6 + rng.Float64()*1e5, B: rate}
			if trial%2 == 1 && rng.Intn(2) == 0 {
				delta := rng.Float64() * 0.05
				l.a, l.A = l.cap*delta, l.A+l.B*delta
				shifted++
			}
			links[j] = l
		}
		want, ok := bruteBacklog(links, c)
		if !ok {
			t.Fatalf("trial %d: oracle reports an unstable server", trial)
		}
		got := backlog(links, c) / c
		if want /= c; math.Abs(got-want) > 1e-12*math.Max(got, want) {
			t.Fatalf("trial %d: step %.17g, oracle %.17g (links %+v)", trial, got, want, links)
		}
	}
	if shifted == 0 {
		t.Fatal("no shifted link drawn")
	}
}

// FuzzBacklogMatchesCurves checks the per-server step against the
// exhaustive oracle on 1+n%4 pieces. Piece k is a link of capacity
// c, c/10, 10c or 2c (two bits of caps each) carrying burst |a_k| and a
// share |r_k| of the rate left below c, shifted by δ = |d_k| seconds of
// upstream delay: min(cap·(I+δ), A + B·(I+δ)). A large δ makes A + B·δ ≤
// cap·δ, a piece that never kinks.
func FuzzBacklogMatchesCurves(f *testing.F) {
	f.Add(uint8(2), uint8(0), 0.0, 0.0, 0.0, 0.0, 640.0, 15e3, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0)
	f.Add(uint8(3), uint8(0x1b), 0.002, 0.0, 0.5, 0.0, 640.0, 1e6, 640.0, 0.0, 0.3, 0.9, 0.2, 0.0)
	f.Add(uint8(4), uint8(0xe4), 1e-4, 0.01, 0.0, 3.0, 1e5, 12e3, 1.0, 5e6, 0.1, 0.2, 0.99, 0.5)
	f.Add(uint8(0), uint8(0), 0.5, 0.0, 0.0, 0.0, 640.0, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0) // A ≤ a
	f.Fuzz(func(t *testing.T, n, caps uint8, d0, d1, d2, d3, a0, a1, a2, a3, r0, r1, r2, r3 float64) {
		const c = 100e6
		ds, as, rs := [4]float64{d0, d1, d2, d3}, [4]float64{a0, a1, a2, a3}, [4]float64{r0, r1, r2, r3}
		for k := range ds {
			for _, x := range []float64{ds[k], as[k], rs[k]} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Skip()
				}
			}
		}
		ps := make([]piece, 1+int(n)%4)
		rateLeft := 0.99 * c
		for k := range ps {
			capacity := [4]float64{c, c / 10, 10 * c, 2 * c}[(caps>>(2*k))&3]
			delta := math.Mod(math.Abs(ds[k]), 10)
			rate := math.Mod(math.Abs(rs[k]), 1) * math.Min(capacity, rateLeft) * 0.99
			rateLeft -= rate
			p := piece{cap: capacity, A: math.Mod(math.Abs(as[k]), 1e9), B: rate}
			p.a, p.A = p.cap*delta, p.A+p.B*delta
			ps[k] = p
		}
		want, ok := bruteBacklog(ps, c)
		if !ok {
			t.Fatalf("oracle reports an unstable server (pieces %+v)", ps)
		}
		if got := backlog(ps, c); math.Abs(got-want) > 1e-12*math.Max(got, want) {
			t.Fatalf("backlog %.17g, oracle %.17g (pieces %+v)", got, want, ps)
		}
	})
}

// Solving a population must give the answer of solving its expansion
// into one entry per flow: same per-server delays and per-flow bounds to
// rounding, same verdict, same iteration count.
func TestSolveFlowAwareEntriesEqualExpansion(t *testing.T) {
	line, _ := topology.Line(6, topology.DefaultCapacity)
	ring, _ := topology.Ring(8, topology.DefaultCapacity)
	wax, err := topology.Waxman(14, 0.25, 0.4, topology.DefaultCapacity, 5)
	if err != nil {
		t.Fatal(err)
	}
	buckets := []traffic.LeakyBucket{traffic.Voice().Bucket, {Burst: 12000, Rate: 256e3}}
	rng := rand.New(rand.NewSource(11))
	for _, net := range []*topology.Network{line, ring, topology.MCI(), wax} {
		m := NewModel(net)
		all := shortestPathRoutes(t, net)
		for trial := 0; trial < 5; trial++ {
			var pop, expanded []Entry
			for k := 0; k < 10+rng.Intn(30); k++ {
				e := Entry{Bucket: buckets[rng.Intn(2)], Route: all[rng.Intn(len(all))], Count: 1 + rng.Intn(20)}
				pop = append(pop, e)
				for i := 0; i < e.Count; i++ {
					expanded = append(expanded, Entry{Bucket: e.Bucket, Route: e.Route, Count: 1})
				}
			}
			got, err := m.SolveFlowAware(pop)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.SolveFlowAware(expanded)
			if err != nil {
				t.Fatal(err)
			}
			if got.Converged != want.Converged || got.Iterations != want.Iterations {
				t.Fatalf("%s trial %d: converged %v in %d, expansion %v in %d", net.Name(), trial,
					got.Converged, got.Iterations, want.Converged, want.Iterations)
			}
			near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(a, b) }
			for s := range got.D {
				if !near(got.D[s], want.D[s]) {
					t.Errorf("%s trial %d: server %s delay %g, expansion %g", net.Name(), trial,
						net.ServerName(s), got.D[s], want.D[s])
				}
			}
			f := 0
			for e, ent := range pop {
				for i := 0; i < ent.Count; i++ {
					if !near(got.PerEntry[e], want.PerEntry[f]) {
						t.Errorf("%s trial %d: entry %d bound %g, its flow %d %g", net.Name(), trial,
							e, got.PerEntry[e], f, want.PerEntry[f])
					}
					f++
				}
			}
		}
	}
}

// Repeated solves of one population are bit-identical: each server's
// input links are summed in one order every time.
func TestSolveFlowAwareReproducible(t *testing.T) {
	net := topology.MCI()
	m := NewModel(net)
	rng := rand.New(rand.NewSource(1))
	var pop []Entry
	for _, r := range shortestPathRoutes(t, net) {
		pop = append(pop, Entry{Bucket: traffic.Voice().Bucket, Route: r, Count: 1 + rng.Intn(7)})
	}
	first, err := m.SolveFlowAware(pop)
	if err != nil || !first.Converged {
		t.Fatalf("solve: %v", err)
	}
	for run := 0; run < 30; run++ {
		again, err := m.SolveFlowAware(pop)
		if err != nil {
			t.Fatal(err)
		}
		for s := range first.D {
			if math.Float64bits(again.D[s]) != math.Float64bits(first.D[s]) {
				t.Fatalf("run %d: server %s delay %.17g, first solve %.17g",
					run, net.ServerName(s), again.D[s], first.D[s])
			}
		}
	}
}

// The solve's iteration loop allocates nothing: its only allocations are
// the result and the per-server link slices built before it.
func TestSolveFlowAwareAllocsIndependentOfIterations(t *testing.T) {
	net := topology.MCI()
	var pop []Entry
	for _, r := range shortestPathRoutes(t, net) {
		pop = append(pop, Entry{Bucket: traffic.Voice().Bucket, Route: r, Count: 20})
	}
	allocs := func(maxIter int) float64 {
		m := NewModel(net)
		m.MaxIter = maxIter
		return testing.AllocsPerRun(5, func() {
			if _, err := m.SolveFlowAware(pop); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(50); one != many {
		t.Errorf("allocations grow with iterations: %v at 1, %v at 50", one, many)
	}
}

func BenchmarkSolveFlowAwareMCI(b *testing.B) {
	net := topology.MCI()
	m := NewModel(net)
	var pop []Entry
	for _, r := range shortestPathRoutes(b, net) {
		pop = append(pop, Entry{Bucket: traffic.Voice().Bucket, Route: r, Count: 20})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.SolveFlowAware(pop)
		if err != nil || !res.Converged {
			b.Fatalf("solve: %v", err)
		}
	}
}
