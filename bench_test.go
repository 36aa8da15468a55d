// Package ubac_test is the top-level benchmark harness: one benchmark per
// evaluation artifact of the paper (see DESIGN.md's experiment index and
// EXPERIMENTS.md for recorded results).
//
//	T1   BenchmarkTable1*            Table 1 (LB / SP / heuristic / UB)
//	F-A  BenchmarkSweepDeadline      bounds vs deadline
//	F-B  BenchmarkSweepDiameter      bounds vs network diameter
//	F-C  BenchmarkSweepFanIn         bounds vs router fan-in
//	F-D  BenchmarkSelectAcrossTopologies   heuristic vs SP elsewhere
//	F-E  BenchmarkSimValidation      analytic bound vs simulated worst case
//	F-F  BenchmarkMultiClass         Theorem 5 multi-class delays
//	F-G  BenchmarkAdmission*         run-time admission throughput
//
// Ablations (design choices called out in DESIGN.md §4):
//
//	BenchmarkHeuristicKnobs             lookahead vs cheap scoring, K, cycle heuristic
//	BenchmarkDelayModelN                uniform-N (paper) vs per-server fan-in
//
// The closed-form ablation, BenchmarkDelayClosedFormVsNumeric, times
// unexported code and lives in internal/delay.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package ubac_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/bounds"
	"ubac/internal/config"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/sim"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// voiceParams is the Table 1 scenario.
func voiceParams(net *topology.Network) bounds.Params {
	v := traffic.Voice()
	return bounds.Params{
		N: net.MaxDegree(), L: net.Diameter(),
		Burst: v.Bucket.Burst, Rate: v.Bucket.Rate, Deadline: v.Deadline,
	}
}

func maxUtil(b *testing.B, net *topology.Network, sel routing.Selector) *config.MaxUtilResult {
	b.Helper()
	cfg := config.New(delay.NewModel(net))
	cfg.Selector = sel
	res, err := cfg.MaxUtilization(traffic.Voice(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Bounds regenerates the Theorem 4 columns of Table 1.
func BenchmarkTable1Bounds(b *testing.B) {
	net := topology.MCI()
	p := voiceParams(net)
	var lb, ub float64
	for i := 0; i < b.N; i++ {
		var err error
		lb, ub, err = bounds.Bounds(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lb, "alphaLB")
	b.ReportMetric(ub, "alphaUB")
	b.Logf("Table 1 bounds: lower=%.2f upper=%.2f (paper: 0.30 / 0.61)", lb, ub)
}

// BenchmarkTable1SP regenerates the SP column of Table 1.
func BenchmarkTable1SP(b *testing.B) {
	net := topology.MCI()
	var alpha float64
	for i := 0; i < b.N; i++ {
		alpha = maxUtil(b, net, routing.SP{}).Alpha
	}
	b.ReportMetric(alpha, "alphaSP")
	b.Logf("Table 1 SP: %.2f (paper: 0.33)", alpha)
}

// BenchmarkTable1Heuristic regenerates the "Our Heuristics" column of
// Table 1 using the heuristic portfolio.
func BenchmarkTable1Heuristic(b *testing.B) {
	net := topology.MCI()
	var alpha float64
	for i := 0; i < b.N; i++ {
		alpha = maxUtil(b, net, routing.Portfolio{}).Alpha
	}
	b.ReportMetric(alpha, "alphaHeur")
	b.Logf("Table 1 heuristic portfolio: %.2f (paper: 0.45)", alpha)
}

// BenchmarkSweepDeadline regenerates F-A: the Theorem 4 bounds as the
// end-to-end deadline grows (fixed MCI N=6, L=4).
func BenchmarkSweepDeadline(b *testing.B) {
	net := topology.MCI()
	deadlines := []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5}
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range deadlines {
			p := voiceParams(net)
			p.Deadline = d
			lb, ub, err := bounds.Bounds(p)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("D=%4.0fms lower=%.4f upper=%.4f", d*1e3, lb, ub))
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
}

// BenchmarkSweepDiameter regenerates F-B: bounds vs network diameter.
func BenchmarkSweepDiameter(b *testing.B) {
	net := topology.MCI()
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for l := 2; l <= 10; l++ {
			p := voiceParams(net)
			p.L = l
			lb, ub, err := bounds.Bounds(p)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("L=%2d lower=%.4f upper=%.4f", l, lb, ub))
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
}

// BenchmarkSweepFanIn regenerates F-C: bounds vs router fan-in N.
func BenchmarkSweepFanIn(b *testing.B) {
	net := topology.MCI()
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for n := 2; n <= 16; n += 2 {
			p := voiceParams(net)
			p.N = n
			lb, ub, err := bounds.Bounds(p)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("N=%2d lower=%.4f upper=%.4f", n, lb, ub))
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
}

// BenchmarkSelectAcrossTopologies regenerates F-D: SP vs heuristic
// maximum utilization on synthetic topologies.
func BenchmarkSelectAcrossTopologies(b *testing.B) {
	type entry struct {
		name string
		net  *topology.Network
	}
	mk := func(n *topology.Network, err error) *topology.Network {
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	nets := []entry{
		{"nsfnet", topology.NSFNet(topology.DefaultCapacity)},
		{"ring8", mk(topology.Ring(8, topology.DefaultCapacity))},
		{"grid3x3", mk(topology.Grid(3, 3, topology.DefaultCapacity))},
		{"tree3x2", mk(topology.Tree(3, 2, topology.DefaultCapacity))},
		{"random16", mk(topology.Random(16, 8, topology.DefaultCapacity, 7))},
	}
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, e := range nets {
			sp := maxUtil(b, e.net, routing.SP{})
			heur := maxUtil(b, e.net, routing.Portfolio{})
			if heur.Alpha < sp.Alpha-1e-9 {
				b.Fatalf("%s: portfolio %.3f lost to SP %.3f", e.name, heur.Alpha, sp.Alpha)
			}
			rows = append(rows, fmt.Sprintf("%-9s L=%d N=%d  lower=%.3f sp=%.3f heuristics=%.3f upper=%.3f",
				e.name, e.net.Diameter(), e.net.MaxDegree(), sp.Lower, sp.Alpha, heur.Alpha, sp.Upper))
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
}

// BenchmarkSimValidation regenerates F-E: the simulated worst-case
// end-to-end queueing delay against the analytic bound under a verified
// configuration with adversarial (synchronized greedy burst) arrivals.
func BenchmarkSimValidation(b *testing.B) {
	net := topology.MCI()
	m := delay.NewModel(net)
	voice := traffic.Voice()
	set, rep, err := (routing.Heuristic{}).Select(m, routing.Request{Class: voice, Alpha: 0.40})
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Safe {
		b.Fatal("alpha=0.40 unsafe")
	}
	res, err := m.SolveTwoClass(delay.ClassInput{Class: voice, Alpha: 0.40, Routes: set})
	if err != nil || !res.Converged {
		b.Fatalf("solve: %v", err)
	}
	bound, _ := set.MaxRouteDelay(res.D)
	var observed float64
	for i := 0; i < b.N; i++ {
		sm, err := sim.New(net, sim.Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < set.Len(); r++ {
			if _, err := sm.AddFlow(sim.FlowSpec{
				Class: 0, Route: set.Route(r).Servers,
				Size: voice.Bucket.Burst, Rate: voice.Bucket.Rate, Burst: voice.Bucket.Burst,
				Pattern: sim.GreedyBurst, Deadline: voice.Deadline,
			}); err != nil {
				b.Fatal(err)
			}
		}
		out, err := sm.Run(1.0)
		if err != nil {
			b.Fatal(err)
		}
		observed = out.PerClass[0].MaxQueueing
		if observed > bound {
			b.Fatalf("VIOLATION: observed %g > bound %g", observed, bound)
		}
		if out.PerClass[0].Late != 0 {
			b.Fatalf("late packets under verified configuration")
		}
	}
	b.ReportMetric(bound*1e3, "bound_ms")
	b.ReportMetric(observed*1e3, "observed_ms")
	b.Logf("F-E: observed %.4f ms <= analytic bound %.3f ms (%.1f%%)",
		observed*1e3, bound*1e3, 100*observed/bound)
}

// multiClassFF is F-F's mix: voice at α 0.15 over 1.5 Mb/s video at
// α 0.20 (D = 400 ms), every MCI pair.
func multiClassFF() []config.ClassSpec {
	video := traffic.Class{
		Name:     "video",
		Bucket:   traffic.LeakyBucket{Burst: 15e3, Rate: 1.5e6},
		Deadline: 0.4,
		Priority: 1,
	}
	return []config.ClassSpec{
		{Class: traffic.Voice(), Alpha: 0.15},
		{Class: video, Alpha: 0.20},
	}
}

// BenchmarkMultiClass regenerates F-F: Theorem 5 multi-class worst-case
// delays for a voice+video mix.
func BenchmarkMultiClass(b *testing.B) {
	cfg := config.New(delay.NewModel(topology.MCI()))
	var rows []string
	for i := 0; i < b.N; i++ {
		res, err := cfg.SelectMultiClass(multiClassFF())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verify.Safe {
			b.Fatal("multi-class configuration unsafe")
		}
		rows = rows[:0]
		for ci, in := range res.Inputs {
			worst := 0.0
			for _, rr := range res.Verify.Routes {
				if rr.Class == in.Class.Name && rr.Bound > worst {
					worst = rr.Bound
				}
			}
			rows = append(rows, fmt.Sprintf("%-6s alpha=%.2f worst e2e=%7.3fms deadline=%gms",
				in.Class.Name, in.Alpha, worst*1e3, in.Class.Deadline*1e3))
			_ = ci
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
}

// admissionBench builds a deployed controller at alpha=0.40.
func admissionBench(b *testing.B) *admission.Controller {
	b.Helper()
	net := topology.MCI()
	m := delay.NewModel(net)
	set, rep, err := (routing.Heuristic{}).Select(m, routing.Request{Class: traffic.Voice(), Alpha: 0.40})
	if err != nil || !rep.Safe {
		b.Fatalf("select: %v safe=%v", err, rep != nil && rep.Safe)
	}
	ctrl, err := admission.NewController(net,
		[]admission.ClassConfig{{Class: traffic.Voice(), Alpha: 0.40, Routes: set}}, admission.AtomicLedger)
	if err != nil {
		b.Fatal(err)
	}
	return ctrl
}

// BenchmarkAdmissionAtomic regenerates F-G with the lock-free ledger.
func BenchmarkAdmissionAtomic(b *testing.B) {
	ctrl := admissionBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id, err := ctrl.Admit("voice", i%19, (i+7)%19); err == nil {
			if err := ctrl.Teardown(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAdmitWithTelemetry is BenchmarkAdmissionAtomic with a live
// metrics registry and audit ring attached: the difference between the
// two quantifies the full observability cost on the admission hot path
// (the default Nop sink must stay within 5% of the seed; this one pays
// for two time.Now() calls, histogram atomics, and a ring append).
func BenchmarkAdmitWithTelemetry(b *testing.B) {
	ctrl := admissionBench(b)
	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4096))
	ctrl.SetSink(sink)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id, err := ctrl.Admit("voice", i%19, (i+7)%19); err == nil {
			if err := ctrl.Teardown(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	if sink.Admit.Value() == 0 {
		b.Fatal("telemetry sink saw no admissions")
	}
}

// BenchmarkAdmissionParallel regenerates F-G's concurrency story: all
// cores admitting and tearing down at once (lock-free ledger).
func BenchmarkAdmissionParallel(b *testing.B) {
	ctrl := admissionBench(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if id, err := ctrl.Admit("voice", i%19, (i+7)%19); err == nil {
				if err := ctrl.Teardown(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkHeuristicKnobs is the DESIGN.md §4 ablation over the
// selection heuristic's knobs at the Table 1 operating point.
func BenchmarkHeuristicKnobs(b *testing.B) {
	net := topology.MCI()
	variants := []struct {
		name string
		h    routing.Heuristic
	}{
		{"lookahead", routing.Heuristic{}},
		{"delayweighted", routing.Heuristic{DelayWeighted: true}},
		{"cheap", routing.Heuristic{Mode: routing.Cheap}},
		{"k4", routing.Heuristic{K: 4, LengthSlack: 1}},
		{"nocycles", routing.Heuristic{IgnoreCycles: true}},
		{"noorder", routing.Heuristic{IgnoreOrder: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			m := delay.NewModel(net)
			var safe bool
			for i := 0; i < b.N; i++ {
				_, rep, err := v.h.Select(m, routing.Request{Class: traffic.Voice(), Alpha: 0.40})
				if err != nil {
					b.Fatal(err)
				}
				safe = rep.Safe
			}
			if safe {
				b.ReportMetric(1, "safe@0.40")
			} else {
				b.ReportMetric(0, "safe@0.40")
			}
		})
	}
}

// BenchmarkDelayModelN is the DESIGN.md §4 ablation of uniform-N (the
// paper's model) against the per-server fan-in generalization.
func BenchmarkDelayModelN(b *testing.B) {
	net := topology.MCI()
	set, rep, err := (routing.SP{}).Select(delay.NewModel(net), routing.Request{Class: traffic.Voice(), Alpha: 0.30})
	if err != nil || !rep.Safe {
		b.Fatalf("select: %v", err)
	}
	in := delay.ClassInput{Class: traffic.Voice(), Alpha: 0.30, Routes: set}
	for _, mode := range []struct {
		name string
		m    delay.NMode
	}{{"uniformN", delay.UniformN}, {"perServer", delay.PerServerFanIn}} {
		b.Run(mode.name, func(b *testing.B) {
			m := delay.NewModel(net)
			m.NMode = mode.m
			var worst float64
			for i := 0; i < b.N; i++ {
				res, err := m.SolveTwoClass(in)
				if err != nil || !res.Converged {
					b.Fatalf("solve: %v", err)
				}
				worst, _ = set.MaxRouteDelay(res.D)
			}
			b.ReportMetric(worst*1e3, "worstE2E_ms")
		})
	}
}

// BenchmarkMeasuredDeadlineSweep regenerates F-H: the *achieved* maximum
// utilization (not just the Theorem 4 bounds) as the deadline varies, for
// SP and the heuristic portfolio on the MCI backbone.
func BenchmarkMeasuredDeadlineSweep(b *testing.B) {
	net := topology.MCI()
	deadlines := []float64{0.05, 0.1, 0.2}
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range deadlines {
			cls := traffic.Voice()
			cls.Deadline = d
			row := fmt.Sprintf("D=%3.0fms", d*1e3)
			for _, sel := range []routing.Selector{routing.SP{}, routing.Portfolio{}} {
				cfg := config.New(delay.NewModel(net))
				cfg.Selector = sel
				cfg.Granularity = 0.005
				res, err := cfg.MaxUtilization(cls, nil)
				if err != nil {
					b.Fatal(err)
				}
				row += fmt.Sprintf("  %s=%.3f", sel.Name(), res.Alpha)
			}
			rows = append(rows, row)
		}
	}
	for _, r := range rows {
		b.Log(r)
	}
}

// BenchmarkConfigScaling measures how the configuration step scales with
// network size: lookahead selection at alpha=0.2 over growing
// Waxman topologies (the whole point of the paper is that only this
// offline step is expensive — run time admission stays O(path)).
func BenchmarkConfigScaling(b *testing.B) {
	for _, n := range []int{10, 20, 30} {
		net, err := topology.Waxman(n, 0.25, 0.4, topology.DefaultCapacity, 17)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			m := delay.NewModel(net)
			for i := 0; i < b.N; i++ {
				if _, _, err := (routing.Heuristic{}).Select(m,
					routing.Request{Class: traffic.Voice(), Alpha: 0.2}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(net.NumServers()), "servers")
			b.ReportMetric(float64(len(net.Pairs())), "pairs")
		})
	}
}

// aggregationPenalty builds X-3's operating point: MCI at alpha=0.40,
// routes from the heuristic, every pair filled round-robin until the
// admission controller rejects everywhere. It returns the population as
// one entry per route with its admitted count, the number of admitted
// flows, and the configuration-time worst end-to-end bound.
func aggregationPenalty(tb testing.TB) (*delay.Model, []delay.Entry, int, float64) {
	net := topology.MCI()
	m := delay.NewModel(net)
	voice := traffic.Voice()
	const alpha = 0.40
	set, rep, err := (routing.Heuristic{}).Select(m, routing.Request{Class: voice, Alpha: alpha})
	if err != nil || !rep.Safe {
		tb.Fatalf("select: %v", err)
	}
	ctrl, err := admission.NewController(net,
		[]admission.ClassConfig{{Class: voice, Alpha: alpha, Routes: set}},
		admission.AtomicLedger)
	if err != nil {
		tb.Fatal(err)
	}
	// Fill every pair round-robin until the controller rejects
	// everywhere, counting the admitted flows per route.
	routeOf := make(map[[2]int]int, set.Len())
	for r := 0; r < set.Len(); r++ {
		routeOf[[2]int{set.Route(r).Src, set.Route(r).Dst}] = r
	}
	counts := make([]int, set.Len())
	flows := 0
	pairs := net.Pairs()
	active := make([]bool, len(pairs))
	for i := range active {
		active[i] = true
	}
	remaining := len(pairs)
	for remaining > 0 {
		for i, p := range pairs {
			if !active[i] {
				continue
			}
			if _, err := ctrl.Admit("voice", p[0], p[1]); err != nil {
				active[i] = false
				remaining--
				continue
			}
			counts[routeOf[p]]++
			flows++
		}
	}
	var entries []delay.Entry
	for r, n := range counts {
		if n > 0 {
			entries = append(entries, delay.Entry{Bucket: voice.Bucket, Route: set.Route(r), Count: n})
		}
	}
	cfgRes, err := m.SolveTwoClass(delay.ClassInput{Class: voice, Alpha: alpha, Routes: set})
	if err != nil || !cfgRes.Converged {
		tb.Fatalf("config solve: %v", err)
	}
	worstCfg, _ := set.MaxRouteDelay(cfgRes.D)
	return m, entries, flows, worstCfg
}

// BenchmarkAggregationPenalty regenerates X-3: at the configured
// operating point (aggregationPenalty), compare the configuration-time
// delay bound against the flow-aware analysis the paper's approach
// replaces. The gap is the utilization price of flow-state-free
// admission. ns/op times the flow-aware solve alone.
func BenchmarkAggregationPenalty(b *testing.B) {
	m, entries, flows, worstCfg := aggregationPenalty(b)
	var (
		fa  *delay.FlowAwareResult
		err error
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa, err = m.SolveFlowAware(entries)
		if err != nil || !fa.Converged {
			b.Fatalf("flow-aware solve: %v", err)
		}
	}
	if fa.MaxEntryDelay() > worstCfg+1e-9 {
		b.Fatalf("flow-aware %g exceeds configuration bound %g", fa.MaxEntryDelay(), worstCfg)
	}
	b.ReportMetric(float64(flows), "flows")
	b.ReportMetric(float64(len(entries)), "entries")
	b.ReportMetric(worstCfg*1e3, "config_ms")
	b.ReportMetric(fa.MaxEntryDelay()*1e3, "flowaware_ms")
	b.Logf("X-3: %d admitted flows on %d routes; config bound %.2f ms vs flow-aware %.2f ms (%.2fx aggregation penalty)",
		flows, len(entries), worstCfg*1e3, fa.MaxEntryDelay()*1e3, worstCfg/fa.MaxEntryDelay())
}

// TestGoldenAggregationPenalty pins X-3 at its printed precision: 49,410
// admitted flows on 342 routes, a 69.25 ms configuration-time bound, a
// 28.50 ms flow-aware bound, a 2.43x aggregation penalty. The numbers
// rest on the heuristic's route selection, pinned on amd64 only.
func TestGoldenAggregationPenalty(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("route selection pinned on amd64; FMA fusing may move float ties elsewhere")
	}
	if raceEnabled {
		t.Skip("one sequential selection and fill; the race detector would only slow it")
	}
	m, entries, flows, worstCfg := aggregationPenalty(t)
	fa, err := m.SolveFlowAware(entries)
	if err != nil || !fa.Converged {
		t.Fatalf("flow-aware solve: %v", err)
	}
	got := fmt.Sprintf("%d flows, %d routes, %.2f ms vs %.2f ms, %.2fx",
		flows, len(entries), worstCfg*1e3, fa.MaxEntryDelay()*1e3, worstCfg/fa.MaxEntryDelay())
	if want := "49410 flows, 342 routes, 69.25 ms vs 28.50 ms, 2.43x"; got != want {
		t.Errorf("X-3: %s, pinned %s", got, want)
	}
}

// TestGoldenMultiClassFF pins F-F, the multi-class result of Theorem 5,
// to 1e-9 relative: each class's worst end-to-end bound under the joint
// Equation (24) solve, each class's worst per-server delay alone (its
// two-class solve) and jointly, and the largest uniform scale of the mix
// at granularity 0.01. Voice, the higher priority, is unchanged by the
// video load. The numbers rest on the heuristic's route selection,
// pinned on amd64 only.
func TestGoldenMultiClassFF(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("route selection pinned on amd64; FMA fusing may move float ties elsewhere")
	}
	if raceEnabled {
		t.Skip("sequential selections and solves; the race detector would only slow them")
	}
	near := func(label string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("F-F %s = %.17g, pinned %.17g", label, got, want)
		}
	}
	net := topology.MCI()
	cfg := config.New(delay.NewModel(net))
	specs := multiClassFF()
	res, err := cfg.SelectMultiClass(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verify.Safe {
		t.Fatal("F-F configuration unsafe")
	}
	// Per class: worst e2e bound, worst per-server delay alone and jointly.
	pinned := [][3]float64{
		{0.013879507124474584, 0.0038499439914175667, 0.0038499439914175663},
		{0.043981771855044524, 0.0030020228477222063, 0.013712574653734584},
	}
	for i, in := range res.Inputs {
		worst := 0.0
		for _, rr := range res.Verify.Routes {
			if rr.Class == in.Class.Name && rr.Bound > worst {
				worst = rr.Bound
			}
		}
		alone, err := delay.NewModel(net).SolveTwoClass(in)
		if err != nil || !alone.Converged {
			t.Fatalf("%s alone: %v", in.Class.Name, err)
		}
		near(in.Class.Name+" worst e2e bound", worst, pinned[i][0])
		near(in.Class.Name+" per-server alone", alone.MaxServerDelay(), pinned[i][1])
		near(in.Class.Name+" per-server jointly", res.Verify.Results[i].MaxServerDelay(), pinned[i][2])
	}
	cfg.Granularity = 0.01
	scale, err := cfg.MaxUtilizationScale(specs)
	if err != nil {
		t.Fatal(err)
	}
	near("max uniform scale", scale.Scale, 2.0515178571428576)
}
