package delay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

const eps = 1e-9

func approx(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestGainHandComputed(t *testing.T) {
	// α=0.5, ρ=32 kb/s, N=2: g = 0.5·1/(32000·1.5).
	got := Gain(0.5, 32e3, 2)
	want := 0.5 / (32e3 * 1.5)
	if !approx(got, want) {
		t.Errorf("Gain = %g, want %g", got, want)
	}
}

func TestServerBoundMatchesTheorem3Shape(t *testing.T) {
	// d = (T+ρY)α/ρ + (α−1)·α(T+ρY)/(ρ(N−α)) must equal g(T+ρY).
	alpha, burst, rho, y := 0.45, 640.0, 32e3, 0.02
	n := 6
	direct := (burst+rho*y)*alpha/rho + (alpha-1)*alpha*(burst+rho*y)/(rho*(float64(n)-alpha))
	if got := ServerBound(alpha, burst, rho, n, y); !approx(got, direct) {
		t.Errorf("ServerBound = %g, explicit Theorem 3 = %g", got, direct)
	}
}

// The paper's closed form (Theorem 3) and the general busy-period
// evaluator over the worst-case aggregate (Theorems 1-2 + Equation (3))
// must agree exactly. This is the consistency obligation called out in
// DESIGN.md.
func TestClosedFormEqualsNumericProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := 0.05 + 0.9*rng.Float64()
		burst := 100 + rng.Float64()*1e5
		rho := 1e3 + rng.Float64()*1e6
		n := 2 + rng.Intn(15)
		c := rho * (10 + rng.Float64()*1e4) // keep αC/ρ meaningful
		y := rng.Float64() * 0.5
		closed := ServerBound(alpha, burst, rho, n, y)
		numeric, err := ServerBoundNumeric(alpha, burst, rho, n, c, y)
		if err != nil {
			return false
		}
		return math.Abs(closed-numeric) <= 1e-9*math.Max(1, closed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAggregateCurveShape(t *testing.T) {
	alpha, burst, rho := 0.3, 640.0, 32e3
	n, c, y := 6, 100e6, 0.01
	g := AggregateCurve(alpha, burst, rho, n, c, y)
	// Long-run rate must be α·C (the admitted population's total rate).
	if got := g.SustainedRate(); !approx(got, alpha*c) {
		t.Errorf("sustained rate = %g, want %g", got, alpha*c)
	}
	// Initial slope is N·C (all inputs bursting at line rate).
	if got := g.Eval(1e-12) / 1e-12; math.Abs(got-float64(n)*c) > 1e-3*float64(n)*c {
		t.Errorf("initial slope = %g, want %g", got, float64(n)*c)
	}
}

func lineModel(t *testing.T, nRouters int) (*Model, *topology.Network) {
	t.Helper()
	net, err := topology.Line(nRouters, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(net), net
}

func chainInput(t *testing.T, net *topology.Network, alpha float64) ClassInput {
	t.Helper()
	rs := routes.NewSet(net)
	path := make([]int, net.NumRouters())
	for i := range path {
		path[i] = i
	}
	r, err := routes.FromRouterPath(net, "voice", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Add(r); err != nil {
		t.Fatal(err)
	}
	return ClassInput{Class: traffic.Voice(), Alpha: alpha, Routes: rs}
}

func TestSolveTwoClassChainGeometric(t *testing.T) {
	// A single route along a line has no feedback: the fixed point is the
	// exact geometric recursion d_k = gT(1+gρ)^(k-1).
	m, net := lineModel(t, 5)
	in := chainInput(t, net, 0.5)
	res, err := m.SolveTwoClass(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("chain did not converge")
	}
	g := Gain(0.5, 32e3, net.MaxDegree())
	for hop := 0; hop < 4; hop++ {
		srv := in.Routes.Route(0).Servers[hop]
		want := g * 640 * math.Pow(1+g*32e3, float64(hop))
		if !approx(res.D[srv], want) {
			t.Errorf("hop %d: d = %g, want %g", hop, res.D[srv], want)
		}
	}
	// Route delay equals the geometric sum.
	wantTotal := 640.0 / 32e3 * (math.Pow(1+g*32e3, 4) - 1)
	if got := in.Routes.Route(0).Delay(res.D); !approx(got, wantTotal) {
		t.Errorf("route delay = %g, want %g", got, wantTotal)
	}
}

func TestSolveTwoClassValidation(t *testing.T) {
	m, net := lineModel(t, 3)
	rs := routes.NewSet(net)
	bad := []ClassInput{
		{Class: traffic.Voice(), Alpha: 0, Routes: rs},
		{Class: traffic.Voice(), Alpha: 1, Routes: rs},
		{Class: traffic.Voice(), Alpha: -0.2, Routes: rs},
		{Class: traffic.Voice(), Alpha: 0.5, Routes: nil},
		{Class: traffic.Class{}, Alpha: 0.5, Routes: rs},
	}
	for i, in := range bad {
		if _, err := m.SolveTwoClass(in); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Routes over a different network.
	other, err := topology.Line(4, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SolveTwoClass(ClassInput{Class: traffic.Voice(), Alpha: 0.5, Routes: routes.NewSet(other)}); err == nil {
		t.Error("foreign route set accepted")
	}
}

// ringInputAllAround builds the 3-hop all-around route set on Ring(4)
// whose feedback loop has gain 2gρ.
func ringInputAllAround(t *testing.T, net *topology.Network, alpha float64) ClassInput {
	t.Helper()
	rs := routes.NewSet(net)
	n := net.NumRouters()
	for s := 0; s < n; s++ {
		path := []int{s, (s + 1) % n, (s + 2) % n, (s + 3) % n}
		r, err := routes.FromRouterPath(net, "voice", path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return ClassInput{Class: traffic.Voice(), Alpha: alpha, Routes: rs}
}

func TestSolveTwoClassDivergence(t *testing.T) {
	net, err := topology.Ring(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(net)
	// Feedback gain 2gρ = 2α(N−1)/(N−α) with N=2: diverges iff α ≥ 2/3.
	res, err := m.SolveTwoClass(ringInputAllAround(t, net, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("expected divergence at alpha=0.7 on the feedback ring")
	}
	res, err = m.SolveTwoClass(ringInputAllAround(t, net, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence at alpha=0.2")
	}
	// Analytic stationary point of the symmetric ring: d = gT/(1 − 2gρ).
	g := Gain(0.2, 32e3, 2)
	want := g * 640 / (1 - 2*g*32e3)
	if !approx(res.MaxServerDelay(), want) {
		t.Errorf("ring fixed point = %g, want %g", res.MaxServerDelay(), want)
	}
}

func TestDelayMonotoneInAlphaProperty(t *testing.T) {
	m, net := lineModel(t, 4)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a1 := 0.05 + 0.4*rng.Float64()
		a2 := a1 + 0.2*rng.Float64()
		r1, err := m.SolveTwoClass(chainInput(t, net, a1))
		if err != nil || !r1.Converged {
			return false
		}
		r2, err := m.SolveTwoClass(chainInput(t, net, a2))
		if err != nil || !r2.Converged {
			return false
		}
		for k := range r1.D {
			if r2.D[k] < r1.D[k]-eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPerServerFanInTighter(t *testing.T) {
	// On the MCI backbone most routers have degree < 6, so the per-server
	// model must never exceed the uniform-N bound.
	net := topology.MCI()
	rs := routes.NewSet(net)
	rg := net.RouterGraph()
	for _, p := range net.Pairs()[:40] {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		r, err := routes.FromRouterPath(net, "voice", path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	in := ClassInput{Class: traffic.Voice(), Alpha: 0.3, Routes: rs}
	mu := NewModel(net)
	resU, err := mu.SolveTwoClass(in)
	if err != nil || !resU.Converged {
		t.Fatalf("uniform solve: %v converged=%v", err, resU != nil && resU.Converged)
	}
	mp := NewModel(net)
	mp.NMode = PerServerFanIn
	resP, err := mp.SolveTwoClass(in)
	if err != nil || !resP.Converged {
		t.Fatalf("per-server solve: %v", err)
	}
	for k := range resU.D {
		if resP.D[k] > resU.D[k]+eps {
			t.Fatalf("per-server bound %g exceeds uniform %g at server %d", resP.D[k], resU.D[k], k)
		}
	}
	if resP.MaxServerDelay() >= resU.MaxServerDelay() {
		t.Error("per-server model not strictly tighter anywhere")
	}
}

func TestMultiClassSingleEqualsTwoClass(t *testing.T) {
	m, net := lineModel(t, 5)
	in := chainInput(t, net, 0.4)
	two, err := m.SolveTwoClass(in)
	if err != nil || !two.Converged {
		t.Fatalf("two-class: %v", err)
	}
	multi, err := m.SolveMultiClass([]ClassInput{in})
	if err != nil {
		t.Fatal(err)
	}
	if !multi[0].Converged {
		t.Fatal("multi-class single input did not converge")
	}
	for k := range two.D {
		if math.Abs(two.D[k]-multi[0].D[k]) > 1e-9*math.Max(1, two.D[k]) {
			t.Errorf("server %d: two=%g multi=%g", k, two.D[k], multi[0].D[k])
		}
	}
}

func videoClass() traffic.Class {
	return traffic.Class{
		Name:     "video",
		Bucket:   traffic.LeakyBucket{Burst: 15e3, Rate: 1.5e6},
		Deadline: 0.4,
		Priority: 1,
	}
}

func TestMultiClassInterference(t *testing.T) {
	m, net := lineModel(t, 4)
	voice := chainInput(t, net, 0.2)
	videoRoutes := routes.NewSet(net)
	r, err := routes.FromRouterPath(net, "video", []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := videoRoutes.Add(r); err != nil {
		t.Fatal(err)
	}
	video := ClassInput{Class: videoClass(), Alpha: 0.3, Routes: videoRoutes}

	both, err := m.SolveMultiClass([]ClassInput{voice, video})
	if err != nil {
		t.Fatal(err)
	}
	if !both[0].Converged || !both[1].Converged {
		t.Fatal("multi-class did not converge")
	}
	// The top class must see exactly its single-class bound (higher
	// priority traffic is never affected by lower classes).
	solo, err := m.SolveTwoClass(voice)
	if err != nil {
		t.Fatal(err)
	}
	for k := range solo.D {
		if math.Abs(solo.D[k]-both[0].D[k]) > 1e-9*math.Max(1, solo.D[k]) {
			t.Fatalf("voice delay changed under video load at server %d: %g vs %g", k, solo.D[k], both[0].D[k])
		}
	}
	// The lower class must be strictly slower than it would be alone.
	videoAlone, err := m.SolveTwoClass(video)
	if err != nil || !videoAlone.Converged {
		t.Fatal(err)
	}
	if both[1].MaxServerDelay() <= videoAlone.MaxServerDelay() {
		t.Errorf("video under voice (%g) not slower than video alone (%g)",
			both[1].MaxServerDelay(), videoAlone.MaxServerDelay())
	}
}

func TestMultiClassValidation(t *testing.T) {
	m, net := lineModel(t, 3)
	in := chainInput(t, net, 0.4)
	if _, err := m.SolveMultiClass(nil); err == nil {
		t.Error("empty input accepted")
	}
	// Unordered priorities.
	v := chainInput(t, net, 0.2)
	v.Class.Priority = 1
	w := chainInput(t, net, 0.2)
	w.Class.Name = "w"
	w.Class.Priority = 0
	if _, err := m.SolveMultiClass([]ClassInput{v, w}); err == nil {
		t.Error("priority disorder accepted")
	}
	// Overload.
	a := in
	a.Alpha = 0.6
	b := chainInput(t, net, 0.5)
	b.Class.Name = "b"
	b.Class.Priority = 1
	if _, err := m.SolveMultiClass([]ClassInput{a, b}); err == nil {
		t.Error("total alpha >= 1 accepted")
	}
}

func TestVerifySafeAndUnsafe(t *testing.T) {
	m, net := lineModel(t, 5)
	// Low alpha: easily safe for a 100 ms deadline.
	res, err := m.Verify([]ClassInput{chainInput(t, net, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe || !res.Converged {
		t.Fatalf("expected safe: %+v", res)
	}
	if len(res.Routes) != 1 || !res.Routes[0].OK {
		t.Errorf("route report wrong: %+v", res.Routes)
	}
	if res.WorstSlack <= 0 {
		t.Errorf("slack = %g, want > 0", res.WorstSlack)
	}
	// Tighten the deadline below the bound: unsafe but converged.
	tight := chainInput(t, net, 0.1)
	tight.Class.Deadline = 1e-6
	res, err = m.Verify([]ClassInput{tight})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe || !res.Converged {
		t.Errorf("expected unsafe but converged: %+v", res)
	}
	if res.WorstSlack >= 0 {
		t.Errorf("slack = %g, want < 0", res.WorstSlack)
	}
}

func TestVerifyDivergent(t *testing.T) {
	net, err := topology.Ring(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(net)
	res, err := m.Verify([]ClassInput{ringInputAllAround(t, net, 0.8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe || res.Converged {
		t.Errorf("divergent config reported safe/converged: %+v", res)
	}
}

func TestVerifyEmpty(t *testing.T) {
	m, _ := lineModel(t, 3)
	if _, err := m.Verify(nil); err == nil {
		t.Error("Verify(nil) accepted")
	}
}

func TestRouteReportSlack(t *testing.T) {
	r := RouteReport{Bound: 0.03, Deadline: 0.1}
	if !approx(r.Slack(), 0.07) {
		t.Errorf("slack = %g", r.Slack())
	}
}

// BenchmarkFixedPoint measures one cold two-class fixed-point solve over
// the full MCI shortest-path route table (CI bench-smoke runs it).
func BenchmarkFixedPoint(b *testing.B) {
	net := topology.MCI()
	rs := routes.NewSet(net)
	rg := net.RouterGraph()
	for _, p := range net.Pairs() {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			b.Fatal(err)
		}
		r, err := routes.FromRouterPath(net, "voice", path)
		if err != nil {
			b.Fatal(err)
		}
		if err := rs.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	m := NewModel(net)
	in := ClassInput{Class: traffic.Voice(), Alpha: 0.3, Routes: rs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.SolveTwoClass(in)
		if err != nil || !res.Converged {
			b.Fatalf("solve failed: %v", err)
		}
	}
}

func TestModelNetworkAccessor(t *testing.T) {
	m, net := lineModel(t, 3)
	if m.Network() != net {
		t.Error("Network() accessor wrong")
	}
}

func TestMeetsDeadlineTolerance(t *testing.T) {
	if !MeetsDeadline(0.1, 0.1) {
		t.Error("exact equality rejected")
	}
	if !MeetsDeadline(0.1+1e-12, 0.1) {
		t.Error("ULP-level overshoot rejected")
	}
	if MeetsDeadline(0.1001, 0.1) {
		t.Error("real violation accepted")
	}
	if MeetsDeadline(0.2, 0.1) {
		t.Error("gross violation accepted")
	}
}

func TestSolveTwoClassFromBadWarmStart(t *testing.T) {
	m, net := lineModel(t, 3)
	in := chainInput(t, net, 0.3)
	if _, err := m.SolveTwoClassFrom(in, make([]float64, 1)); err == nil {
		t.Error("wrong-length warm start accepted")
	}
}

func TestSolveTwoClassFromWarmEqualsCold(t *testing.T) {
	m, net := lineModel(t, 5)
	in := chainInput(t, net, 0.45)
	cold, err := m.SolveTwoClass(in)
	if err != nil || !cold.Converged {
		t.Fatal(err)
	}
	// Warm start from the halved fixed point (below it) must land on the
	// same answer.
	half := make([]float64, len(cold.D))
	for i, d := range cold.D {
		half[i] = d / 2
	}
	warm, err := m.SolveTwoClassFrom(in, half)
	if err != nil || !warm.Converged {
		t.Fatal(err)
	}
	for k := range cold.D {
		if math.Abs(cold.D[k]-warm.D[k]) > 1e-9*math.Max(1, cold.D[k]) {
			t.Errorf("server %d: cold %g vs warm %g", k, cold.D[k], warm.D[k])
		}
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took more iterations (%d) than cold (%d)", warm.Iterations, cold.Iterations)
	}
}

func TestFixedPerHopChargesDeadline(t *testing.T) {
	m, net := lineModel(t, 5)
	in := chainInput(t, net, 0.3)
	clean, err := m.Verify([]ClassInput{in})
	if err != nil {
		t.Fatal(err)
	}
	m.FixedPerHop = 5e-3 // 5 ms per hop, 4 hops = 20 ms
	charged, err := m.Verify([]ClassInput{in})
	if err != nil {
		t.Fatal(err)
	}
	diff := charged.Routes[0].Bound - clean.Routes[0].Bound
	if math.Abs(diff-0.02) > 1e-12 {
		t.Errorf("per-hop charge = %g, want 0.02", diff)
	}
	// Enough constant delay makes the route miss its 100 ms deadline.
	m.FixedPerHop = 30e-3
	late, err := m.Verify([]ClassInput{in})
	if err != nil {
		t.Fatal(err)
	}
	if late.Safe {
		t.Error("120 ms of constants within a 100 ms deadline reported safe")
	}
}

func TestBreakdownSumsToBound(t *testing.T) {
	m, net := lineModel(t, 5)
	m.FixedPerHop = 1e-3
	in := chainInput(t, net, 0.4)
	res, err := m.SolveTwoClass(in)
	if err != nil || !res.Converged {
		t.Fatal(err)
	}
	rt := in.Routes.Route(0)
	hops := m.Breakdown(res, rt)
	if len(hops) != rt.Hops() {
		t.Fatalf("breakdown hops = %d, want %d", len(hops), rt.Hops())
	}
	sum := 0.0
	for i, h := range hops {
		sum += h.D + h.Fixed
		if math.Abs(h.Cumulative-sum) > 1e-12 {
			t.Errorf("hop %d cumulative %g, want %g", i, h.Cumulative, sum)
		}
		if h.Name == "" || h.Fixed != 1e-3 {
			t.Errorf("hop %d fields wrong: %+v", i, h)
		}
	}
	want := rt.Delay(res.D) + float64(rt.Hops())*m.FixedPerHop
	if math.Abs(sum-want) > 1e-12 {
		t.Errorf("breakdown total %g, want %g", sum, want)
	}
	// Y must be nondecreasing along a single chain.
	for i := 1; i < len(hops); i++ {
		if hops[i].Y < hops[i-1].Y {
			t.Errorf("Y decreasing at hop %d", i)
		}
	}
}

// Property: multi-class delays are monotone in every class's utilization
// and in priority (lower priority never beats a higher one on the same
// server set under identical traffic).
func TestMultiClassMonotoneProperty(t *testing.T) {
	m, net := lineModel(t, 4)
	mk := func(alphaV, alphaD float64) []ClassInput {
		voice := chainInput(t, net, alphaV)
		videoRoutes := routes.NewSet(net)
		r, err := routes.FromRouterPath(net, "video", []int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := videoRoutes.Add(r); err != nil {
			t.Fatal(err)
		}
		video := ClassInput{
			Class: traffic.Class{
				Name:     "video",
				Bucket:   traffic.LeakyBucket{Burst: 15e3, Rate: 1.5e6},
				Deadline: 0.4,
				Priority: 1,
			},
			Alpha:  alphaD,
			Routes: videoRoutes,
		}
		return []ClassInput{voice, video}
	}
	base, err := m.SolveMultiClass(mk(0.15, 0.2))
	if err != nil || !base[1].Converged {
		t.Fatal(err)
	}
	// More voice load: video delays must not decrease.
	heavier, err := m.SolveMultiClass(mk(0.25, 0.2))
	if err != nil || !heavier[1].Converged {
		t.Fatal(err)
	}
	for k := range base[1].D {
		if heavier[1].D[k] < base[1].D[k]-1e-12 {
			t.Fatalf("video delay dropped when voice load grew at server %d", k)
		}
	}
	// Identical envelopes: the lower-priority class is never faster than
	// the higher one on the same server.
	samePair, err := m.SolveMultiClass([]ClassInput{
		chainInput(t, net, 0.2),
		func() ClassInput {
			in := chainInput(t, net, 0.2)
			in.Class.Name = "voice2"
			in.Class.Priority = 1
			return in
		}(),
	})
	if err != nil || !samePair[1].Converged {
		t.Fatal(err)
	}
	for k := range samePair[0].D {
		if samePair[1].D[k] < samePair[0].D[k]-1e-12 {
			t.Fatalf("lower priority faster than higher at server %d", k)
		}
	}
}
