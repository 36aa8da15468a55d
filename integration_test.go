package ubac_test

import (
	"math"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/bounds"
	"ubac/internal/core"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/sim"
	"ubac/internal/statistical"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/workload"
)

// TestLifecycleEndToEnd walks the full paper life cycle on NSFNet:
// bounds → maximize utilization → configure → deploy → admit to
// capacity → simulate under the admitted worst case.
func TestLifecycleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration test")
	}
	net := topology.NSFNet(topology.DefaultCapacity)
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, classes)
	if err != nil {
		t.Fatal(err)
	}

	lb, ub, err := sys.Bounds("voice")
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < lb && lb < ub && ub <= 1) {
		t.Fatalf("bounds broken: %g, %g", lb, ub)
	}

	maxRes, err := sys.MaxUtilization("voice")
	if err != nil {
		t.Fatal(err)
	}
	if maxRes.Alpha < lb-1e-9 || maxRes.Alpha > ub+1e-9 {
		t.Fatalf("max alpha %.4f outside [%.4f, %.4f]", maxRes.Alpha, lb, ub)
	}
	t.Logf("NSFNet voice: bounds [%.3f, %.3f], achieved %.3f", lb, ub, maxRes.Alpha)

	dep, err := sys.Configure(map[string]float64{"voice": maxRes.Alpha})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Safe() {
		t.Fatal("configuration at the achieved maximum is unsafe")
	}

	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	// Fill one pair to capacity and check the count matches αC/ρ on the
	// bottleneck.
	pairs := net.Pairs()
	src, dst := pairs[0][0], pairs[0][1]
	hr, err := ctrl.Headroom("voice", src, dst)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for {
		if _, err := ctrl.Admit("voice", src, dst); err != nil {
			break
		}
		admitted++
	}
	if admitted != hr {
		t.Errorf("admitted %d, headroom said %d", admitted, hr)
	}
	want := int(maxRes.Alpha * topology.DefaultCapacity / traffic.Voice().Bucket.Rate)
	if admitted != want {
		t.Errorf("admitted %d flows, want alpha*C/rho = %d", admitted, want)
	}

	// The simulator under synchronized greedy bursts stays within the
	// verified bound.
	bound, err := dep.AnalyticWorstRoute("voice")
	if err != nil {
		t.Fatal(err)
	}
	sm, err := dep.Simulator(sim.Config{Seed: 3}, 1, sim.GreedyBurst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.Run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerClass[0].MaxQueueing; got > bound {
		t.Errorf("simulated %g exceeds bound %g", got, bound)
	}
	if res.PerClass[0].Late != 0 {
		t.Errorf("late packets under a verified configuration: %d", res.PerClass[0].Late)
	}
}

// TestPerServerBoundsHoldInSimulation checks the bound server by server,
// not just end to end: every link server's observed single-hop queueing
// delay must stay within its analytic d_k.
func TestPerServerBoundsHoldInSimulation(t *testing.T) {
	net := topology.NSFNet(topology.DefaultCapacity)
	m := delay.NewModel(net)
	voice := traffic.Voice()
	const alpha = 0.25
	set, rep, err := (routing.SP{}).Select(m, routing.Request{Class: voice, Alpha: alpha})
	if err != nil || !rep.Safe {
		t.Fatalf("select: %v safe=%v", err, rep != nil && rep.Safe)
	}
	res, err := m.SolveTwoClass(delay.ClassInput{Class: voice, Alpha: alpha, Routes: set})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v", err)
	}
	sm, err := sim.New(net, sim.Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < set.Len(); i++ {
		if _, err := sm.AddFlow(sim.FlowSpec{
			Class: 0, Route: set.Route(i).Servers,
			Size: voice.Bucket.Burst, Rate: voice.Bucket.Rate, Burst: voice.Bucket.Burst,
			Pattern: sim.GreedyBurst, Deadline: voice.Deadline,
		}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := sm.Run(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < net.NumServers(); s++ {
		if out.MaxHopDelay[s] > res.D[s]+1e-12 {
			t.Errorf("server %s: observed hop delay %g exceeds analytic %g",
				net.ServerName(s), out.MaxHopDelay[s], res.D[s])
		}
	}
}

// TestStatisticalPlanDeploys wires the statistical extension into the
// standard controller through the effective-rate trick and checks the
// per-path call capacity matches the Chernoff count.
func TestStatisticalPlanDeploys(t *testing.T) {
	net, err := topology.Line(3, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(net)
	const alpha = 0.40
	voice := traffic.Voice()
	set, rep, err := (routing.SP{}).Select(m, routing.Request{Class: voice, Alpha: alpha})
	if err != nil || !rep.Safe {
		t.Fatalf("select: %v", err)
	}
	plan, err := statistical.NewPlan(
		statistical.Source{Peak: 32e3, Mean: 12.8e3}, alpha*100e6, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Deploy with the effective rate: the plain utilization test now
	// enforces the statistical count.
	statClass := voice
	statClass.Bucket.Rate = plan.EffectiveRate
	ctrl, err := admission.NewController(net,
		[]admission.ClassConfig{{Class: statClass, Alpha: alpha, Routes: set}},
		admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := ctrl.Headroom("voice", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hr != plan.Chernoff {
		t.Errorf("statistical capacity = %d, want Chernoff count %d", hr, plan.Chernoff)
	}
	if plan.Chernoff <= plan.Deterministic {
		t.Errorf("no gain: %d vs %d", plan.Chernoff, plan.Deterministic)
	}
}

// TestWorkloadAgainstDeployment replays Poisson churn against a full
// MCI deployment and cross-checks measured blocking against Erlang-B on
// the bottleneck.
func TestWorkloadAgainstDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("slow replay")
	}
	net := topology.MCI()
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, classes)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Configure(map[string]float64{"voice": 0.01})
	if err != nil || !dep.Safe() {
		t.Fatalf("configure: %v", err)
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	sea, _ := net.RouterByName("Seattle")
	mia, _ := net.RouterByName("Miami")
	circuits, err := ctrl.Headroom("voice", sea, mia)
	if err != nil {
		t.Fatal(err)
	}
	offered := float64(circuits) * 0.9
	g, err := workload.NewGenerator(offered/2, 2, [][2]int{{sea, mia}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	calls := g.Generate(2000)
	st, _ := workload.ReplayTiered(workload.Schedule(calls), calls, ctrlAdapter{ctrl})
	want, err := workload.ErlangB(offered, circuits)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Blocking()-want) > 0.02 {
		t.Errorf("blocking %.4f vs Erlang-B %.4f (circuits=%d, offered=%.1fE)",
			st.Blocking(), want, circuits, offered)
	}
	if ctrl.Stats().Active != 0 {
		t.Error("replay leaked reservations")
	}
}

type ctrlAdapter struct{ ctrl *admission.Controller }

func (a ctrlAdapter) TryAdmitTier(_, _ string, src, dst int) (uint64, bool) {
	id, err := a.ctrl.Admit("voice", src, dst)
	return uint64(id), err == nil
}

func (a ctrlAdapter) Release(h uint64) { _ = a.ctrl.Teardown(admission.FlowID(h)) }

// TestBoundsBracketAchievedEverywhere sweeps several topologies and
// asserts the Theorem 4 bracket LB ≤ achieved ≤ UB with both selectors —
// the invariant behind Figure F-D.
func TestBoundsBracketAchievedEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	nets := []*topology.Network{topology.NSFNet(topology.DefaultCapacity)}
	if g, err := topology.Grid(3, 3, topology.DefaultCapacity); err == nil {
		nets = append(nets, g)
	}
	if r, err := topology.Ring(6, topology.DefaultCapacity); err == nil {
		nets = append(nets, r)
	}
	for _, net := range nets {
		classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(net, classes)
		if err != nil {
			t.Fatal(err)
		}
		sys.Config().Granularity = 0.01
		// The bracket invariant holds for SP (Theorem 4's own construction)
		// and for the portfolio (never worse than SP); a single greedy
		// heuristic can fail even at the lower bound on sparse topologies.
		for _, sel := range []routing.Selector{routing.SP{}, routing.Portfolio{}} {
			sys.Config().Selector = sel
			res, err := sys.MaxUtilization("voice")
			if err != nil {
				t.Fatal(err)
			}
			if res.Alpha < res.Lower-1e-9 || res.Alpha > res.Upper+1e-9 {
				t.Errorf("%s/%s: achieved %.3f outside [%.3f, %.3f]",
					net.Name(), sel.Name(), res.Alpha, res.Lower, res.Upper)
			}
		}
	}
}

// Theorem 4's defining property, checked end to end on random
// topologies: at any utilization not exceeding the lower bound,
// shortest-path routing of all pairs verifies safely — regardless of
// adjacency.
func TestLowerBoundTopologyIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property sweep")
	}
	voice := traffic.Voice()
	for seed := int64(1); seed <= 6; seed++ {
		net, err := topology.Random(12, 6, topology.DefaultCapacity, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := bounds.Params{
			N: net.MaxDegree(), L: net.Diameter(),
			Burst: voice.Bucket.Burst, Rate: voice.Bucket.Rate, Deadline: voice.Deadline,
		}
		lb, err := bounds.Lower(p)
		if err != nil {
			t.Fatal(err)
		}
		m := delay.NewModel(net)
		_, rep, err := (routing.SP{}).Select(m, routing.Request{Class: voice, Alpha: lb * 0.999})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Safe {
			t.Errorf("seed %d (%s, L=%d N=%d): SP unsafe at 0.999·LB=%.4f",
				seed, net.Name(), net.Diameter(), net.MaxDegree(), lb*0.999)
		}
	}
	// Waxman and Barabási-Albert shapes too.
	for _, mk := range []func() (*topology.Network, error){
		func() (*topology.Network, error) {
			return topology.Waxman(14, 0.25, 0.4, topology.DefaultCapacity, 3)
		},
		func() (*topology.Network, error) {
			return topology.BarabasiAlbert(14, 2, topology.DefaultCapacity, 3)
		},
	} {
		net, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		p := bounds.Params{
			N: net.MaxDegree(), L: net.Diameter(),
			Burst: voice.Bucket.Burst, Rate: voice.Bucket.Rate, Deadline: voice.Deadline,
		}
		lb, err := bounds.Lower(p)
		if err != nil {
			t.Fatal(err)
		}
		m := delay.NewModel(net)
		_, rep, err := (routing.SP{}).Select(m, routing.Request{Class: voice, Alpha: lb * 0.999})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Safe {
			t.Errorf("%s: SP unsafe at 0.999·LB=%.4f", net.Name(), lb*0.999)
		}
	}
}
