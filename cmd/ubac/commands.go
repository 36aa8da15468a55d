package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ubac/internal/admission"
	"ubac/internal/bounds"
	"ubac/internal/config"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/sim"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
)

func cmdBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ExitOnError)
	c := addCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	p := bounds.Params{
		N: net.MaxDegree(), L: net.Diameter(),
		Burst: c.burst, Rate: c.rate, Deadline: c.deadline,
	}
	lb, ub, err := bounds.Bounds(p)
	if err != nil {
		return err
	}
	fmt.Printf("topology %s: %d routers, %d link servers, N=%d, L=%d\n",
		net.Name(), net.NumRouters(), net.NumServers(), p.N, p.L)
	fmt.Printf("class: T=%g bits, rho=%g b/s, D=%g s\n", c.burst, c.rate, c.deadline)
	fmt.Printf("alpha lower bound (Theorem 4): %.4f\n", lb)
	fmt.Printf("alpha upper bound (Theorem 4): %.4f\n", ub)
	return nil
}

func cmdSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	c := addCommon(fs)
	alpha := fs.Float64("alpha", 0.3, "utilization assignment for the real-time class")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	sel, err := c.makeSelector()
	if err != nil {
		return err
	}
	m := c.model(net)
	started := time.Now()
	set, rep, err := sel.Select(m, routing.Request{Class: c.class(), Alpha: *alpha})
	if err != nil {
		return err
	}
	elapsed := time.Since(started)
	fmt.Printf("selector=%s alpha=%.4f routed %d/%d pairs safe=%v\n",
		rep.Selector, *alpha, rep.PairsRouted, rep.PairsTotal, rep.Safe)
	fmt.Printf("worst route delay bound: %.6f s (deadline %.3f s)\n", rep.WorstDelay, c.deadline)
	fmt.Printf("total hops: %d over %d routes\n", rep.TotalHops, set.Len())
	fmt.Printf("selection took %s (%d candidates considered)\n",
		elapsed.Round(time.Microsecond), rep.CandidatesTried)
	if rep.FailedPair != nil {
		fmt.Printf("first unroutable pair: %s -> %s\n",
			net.Router((*rep.FailedPair)[0]).Name, net.Router((*rep.FailedPair)[1]).Name)
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	c := addCommon(fs)
	alpha := fs.Float64("alpha", 0.3, "utilization assignment for the real-time class")
	top := fs.Int("top", 5, "print the N tightest routes")
	routeSpec := fs.String("route", "", "print the per-hop delay budget of one route, e.g. Seattle:Miami")
	headroom := fs.Bool("headroom", false, "also binary-search the maximum safe utilization of the selected routes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	sel, err := c.makeSelector()
	if err != nil {
		return err
	}
	m := c.model(net)
	started := time.Now()
	set, rep, err := sel.Select(m, routing.Request{Class: c.class(), Alpha: *alpha})
	if err != nil {
		return err
	}
	fmt.Printf("selection took %s (%d candidates considered)\n",
		time.Since(started).Round(time.Microsecond), rep.CandidatesTried)
	if !rep.Safe && rep.FailedPair != nil {
		fmt.Printf("selection FAILED at pair %s -> %s (%d/%d routed)\n",
			net.Router((*rep.FailedPair)[0]).Name, net.Router((*rep.FailedPair)[1]).Name,
			rep.PairsRouted, rep.PairsTotal)
		return nil
	}
	res, err := m.Verify([]delay.ClassInput{{Class: c.class(), Alpha: *alpha, Routes: set}})
	if err != nil {
		return err
	}
	fmt.Printf("verification: safe=%v converged=%v worst slack=%.6f s\n",
		res.Safe, res.Converged, res.WorstSlack)
	// Print the tightest routes.
	reports := append([]delay.RouteReport(nil), res.Routes...)
	for i := 0; i < len(reports); i++ {
		for j := i + 1; j < len(reports); j++ {
			if reports[j].Slack() < reports[i].Slack() {
				reports[i], reports[j] = reports[j], reports[i]
			}
		}
	}
	n := *top
	if n > len(reports) {
		n = len(reports)
	}
	fmt.Printf("%-16s %-16s %5s %12s %12s\n", "src", "dst", "hops", "bound(ms)", "slack(ms)")
	for _, rr := range reports[:n] {
		fmt.Printf("%-16s %-16s %5d %12.3f %12.3f\n",
			net.Router(rr.Src).Name, net.Router(rr.Dst).Name, rr.Hops,
			rr.Bound*1e3, rr.Slack()*1e3)
	}
	if *routeSpec != "" {
		parts := strings.SplitN(*routeSpec, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("route must be SRC:DST, got %q", *routeSpec)
		}
		src, ok := net.RouterByName(parts[0])
		if !ok {
			return fmt.Errorf("unknown router %q", parts[0])
		}
		dst, ok := net.RouterByName(parts[1])
		if !ok {
			return fmt.Errorf("unknown router %q", parts[1])
		}
		found := false
		for i := 0; i < set.Len(); i++ {
			rt := set.Route(i)
			if rt.Src != src || rt.Dst != dst {
				continue
			}
			found = true
			fmt.Printf("\ndelay budget %s -> %s:\n", parts[0], parts[1])
			fmt.Printf("%-28s %10s %10s %10s %12s\n", "hop", "d_k(ms)", "Y_k(ms)", "fixed(ms)", "cum(ms)")
			for _, hop := range m.Breakdown(res.Results[0], rt) {
				fmt.Printf("%-28s %10.4f %10.4f %10.4f %12.4f\n",
					hop.Name, hop.D*1e3, hop.Y*1e3, hop.Fixed*1e3, hop.Cumulative*1e3)
			}
		}
		if !found {
			return fmt.Errorf("no configured route %s -> %s", parts[0], parts[1])
		}
	}
	if *headroom {
		cfg := config.New(m)
		hr, err := cfg.MaxUtilizationFixedRoutes(c.class(), set)
		if err != nil {
			return err
		}
		fmt.Printf("fixed-route headroom: alpha up to %.4f verifies on these routes\n", hr.Alpha)
	}
	return nil
}

func cmdMaxUtil(args []string) error {
	fs := flag.NewFlagSet("maxutil", flag.ExitOnError)
	c := addCommon(fs)
	gran := fs.Float64("granularity", 0.0025, "binary search resolution")
	verbose := fs.Bool("v", false, "print every probe")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	sel, err := c.makeSelector()
	if err != nil {
		return err
	}
	cfg := config.New(c.model(net))
	cfg.Selector = sel
	cfg.Granularity = *gran
	res, err := cfg.MaxUtilization(c.class(), nil)
	if err != nil {
		return err
	}
	if *verbose {
		for _, p := range res.Probes {
			status := "unsafe"
			if p.Safe {
				status = "safe"
			}
			fmt.Printf("  probe alpha=%.4f %s\n", p.Alpha, status)
		}
	}
	fmt.Printf("bounds: [%.4f, %.4f]\n", res.Lower, res.Upper)
	fmt.Printf("maximum safe utilization (%s): %.4f\n", sel.Name(), res.Alpha)
	return nil
}

// cmdTable1 reproduces the paper's Table 1 on the reconstructed MCI
// backbone: lower bound, SP, heuristic, upper bound.
func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	gran := fs.Float64("granularity", 0.0025, "binary search resolution")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net := topology.MCI()
	voice := (&commonFlags{burst: 640, rate: 32e3, deadline: 0.1}).class()
	voice.Name = "voice"

	search := func(sel routing.Selector) (float64, error) {
		cfg := config.New(delay.NewModel(net))
		cfg.Selector = sel
		cfg.Granularity = *gran
		res, err := cfg.MaxUtilization(voice, nil)
		if err != nil {
			return 0, err
		}
		return res.Alpha, nil
	}
	p := bounds.Params{N: net.MaxDegree(), L: net.Diameter(), Burst: 640, Rate: 32e3, Deadline: 0.1}
	lb, ub, err := bounds.Bounds(p)
	if err != nil {
		return err
	}
	sp, err := search(routing.SP{})
	if err != nil {
		return err
	}
	heur, err := search(routing.Portfolio{})
	if err != nil {
		return err
	}
	fmt.Println("Table 1: Maximum Utilization (VoIP on the MCI backbone, C=100 Mb/s,")
	fmt.Println("T=640 b, rho=32 kb/s, D=100 ms; paper values 0.30 / 0.33 / 0.45 / 0.61)")
	fmt.Printf("%-14s %-8s %-16s %-12s\n", "Lower Bound", "SP", "Our Heuristics", "Upper Bound")
	fmt.Printf("%-14.2f %-8.2f %-16.2f %-12.2f\n", lb, sp, heur, ub)
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	c := addCommon(fs)
	param := fs.String("param", "deadline", "sweep parameter: deadline | diameter | fanin | rate | burst")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	base := bounds.Params{
		N: net.MaxDegree(), L: net.Diameter(),
		Burst: c.burst, Rate: c.rate, Deadline: c.deadline,
	}
	row := func(p bounds.Params, x string) error {
		lb, ub, err := bounds.Bounds(p)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8.4f %8.4f\n", x, lb, ub)
		return nil
	}
	fmt.Printf("%-12s %8s %8s\n", *param, "lower", "upper")
	switch *param {
	case "deadline":
		for _, d := range []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5} {
			p := base
			p.Deadline = d
			if err := row(p, fmt.Sprintf("%gms", d*1e3)); err != nil {
				return err
			}
		}
	case "diameter":
		for l := 2; l <= 10; l++ {
			p := base
			p.L = l
			if err := row(p, fmt.Sprintf("L=%d", l)); err != nil {
				return err
			}
		}
	case "fanin":
		for n := 2; n <= 16; n += 2 {
			p := base
			p.N = n
			if err := row(p, fmt.Sprintf("N=%d", n)); err != nil {
				return err
			}
		}
	case "rate":
		for _, mul := range []float64{0.25, 0.5, 1, 2, 4, 8} {
			p := base
			p.Rate = c.rate * mul
			if err := row(p, fmt.Sprintf("%gkb/s", p.Rate/1e3)); err != nil {
				return err
			}
		}
	case "burst":
		for _, mul := range []float64{0.5, 1, 2, 4, 8, 16} {
			p := base
			p.Burst = c.burst * mul
			if err := row(p, fmt.Sprintf("%gb", p.Burst)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown sweep parameter %q", *param)
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	c := addCommon(fs)
	alpha := fs.Float64("alpha", 0.3, "utilization assignment")
	duration := fs.Float64("duration", 1.0, "simulated seconds")
	seed := fs.Int64("seed", 1, "simulation seed")
	scheduler := fs.String("scheduler", "priority", "scheduler: priority | fifo | wfq | drr")
	flows := fs.Int("flows", 1, "admission attempts per routed pair (attempts beyond capacity are rejected)")
	scale := fs.Bool("scale", false,
		"run the flow-lifetime scale harness: arrivals and teardowns are events, every arrival passes run-time admission in virtual time")
	var sf scaleFlags
	fs.Uint64Var(&sf.lifetimes, "lifetimes", 100000, "flow lifetimes to simulate (-scale)")
	fs.StringVar(&sf.arrival, "arrival", "poisson:rate=1000,holding=10",
		"arrival process (-scale): poisson:rate=R[,holding=H] | mmpp:high=H,low=L,on=S,off=S[,holding=H]")
	fs.StringVar(&sf.report, "report", "", "write the machine-readable run report JSON here (-scale; - = stdout)")
	fs.IntVar(&sf.pkts, "pkts-per-flow", 4, "packet emission cap per admitted flow (-scale)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale {
		// In scale mode -duration caps virtual time only when given
		// explicitly; the default 1.0 belongs to the packet simulator.
		dur := 0.0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "duration" {
				dur = *duration
			}
		})
		return runScaleCommand(c, *alpha, *seed, *scheduler, dur, sf)
	}
	if *flows < 1 {
		return fmt.Errorf("flows must be >= 1, got %d", *flows)
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	sel, err := c.makeSelector()
	if err != nil {
		return err
	}
	// One registry for the whole run: configuration-time fixed-point
	// solves, run-time admission decisions, and the simulation outcome
	// all land in it and feed the summary below.
	reg := telemetry.NewRegistry()
	sink := telemetry.NewRegistrySink(reg, telemetry.NewRing(1024))
	m := c.model(net)
	m.Sink = sink
	cls := c.class()
	set, rep, err := sel.Select(m, routing.Request{Class: cls, Alpha: *alpha})
	if err != nil {
		return err
	}
	if !rep.Safe {
		return fmt.Errorf("configuration at alpha=%.3f is unsafe; refusing to simulate", *alpha)
	}
	// Every simulated flow first passes run-time admission control over
	// the verified configuration; attempts the utilization test rejects
	// stay out of the simulation, exactly as they would stay off the
	// network.
	ctrl, err := admission.NewController(net,
		[]admission.ClassConfig{{Class: cls, Alpha: *alpha, Routes: set}},
		admission.AtomicLedger)
	if err != nil {
		return err
	}
	ctrl.SetSink(sink)
	sm, err := sim.New(net, sim.Config{Scheduler: *scheduler, Seed: *seed})
	if err != nil {
		return err
	}
	sm.SetSink(sink)
	admitted := 0
	for i := 0; i < set.Len(); i++ {
		rt := set.Route(i)
		for f := 0; f < *flows; f++ {
			if _, err := ctrl.Admit(cls.Name, rt.Src, rt.Dst); err != nil {
				continue
			}
			admitted++
			if _, err := sm.AddFlow(sim.FlowSpec{
				Class: 0, Route: rt.Servers,
				Size: cls.Bucket.Burst, Rate: cls.Bucket.Rate, Burst: cls.Bucket.Burst,
				Pattern: sim.GreedyBurst, Deadline: cls.Deadline,
			}); err != nil {
				return err
			}
		}
	}
	if admitted == 0 {
		return fmt.Errorf("admission control rejected all %d attempts; nothing to simulate", set.Len()**flows)
	}
	out, err := sm.Run(*duration)
	if err != nil {
		return err
	}
	// Validate the run against the analytic bounds through the shared
	// checker, which re-solves the fixed point with m.
	check, err := sim.CheckAgainstBounds(m,
		[]delay.ClassInput{{Class: cls, Alpha: *alpha, Routes: set}}, out)
	if err != nil {
		return err
	}
	cb := check.Classes[0]
	cs := out.PerClass[0]
	fmt.Printf("simulated %d flows for %.2f s under %s scheduling\n", admitted, *duration, *scheduler)
	fmt.Printf("packets: generated=%d delivered=%d late=%d\n", out.Generated, out.Delivered, cs.Late)
	fmt.Printf("observed  max e2e queueing: %.6f s (mean %.6f s, p50 %.2g s, p99 %.2g s)\n",
		cs.MaxQueueing, cs.MeanQueueing(), cs.Percentile(0.5), cs.Percentile(0.99))
	fmt.Printf("analytic  worst-case bound: %.6f s\n", cb.Bound)
	if cb.Within {
		fmt.Printf("VALIDATED: observed <= bound (%.1f%% of bound)\n", 100*cb.Observed/cb.Bound)
	} else {
		fmt.Printf("VIOLATION: observed exceeds bound by %.6f s\n", cb.Observed-cb.Bound)
	}
	printTelemetrySummary(sink)
	return nil
}

// printTelemetrySummary renders the run's registry as a stats-style
// block: admit rate, admission latency quantiles, rejection breakdown,
// and the configuration-time fixed-point solver totals.
func printTelemetrySummary(sink *telemetry.RegistrySink) {
	admit := sink.Admit.Value()
	rejects := []struct {
		reason string
		n      uint64
	}{
		{"capacity", sink.RejectCapacity.Value()},
		{"no_route", sink.RejectNoRoute.Value()},
		{"unknown_class", sink.RejectUnknownClass.Value()},
	}
	var rejected uint64
	for _, r := range rejects {
		rejected += r.n
	}
	total := admit + rejected
	fmt.Println("\n--- telemetry ---")
	if total > 0 {
		fmt.Printf("admission: attempted=%d admitted=%d rejected=%d (admit rate %.1f%%)\n",
			total, admit, rejected, 100*float64(admit)/float64(total))
		if rejected > 0 {
			parts := make([]string, 0, len(rejects))
			for _, r := range rejects {
				if r.n > 0 {
					parts = append(parts, fmt.Sprintf("%s=%d", r.reason, r.n))
				}
			}
			fmt.Printf("  rejection breakdown: %s\n", strings.Join(parts, " "))
		}
		h := sink.AdmissionLatency
		fmt.Printf("  admission latency: p50=%s p99=%s max=%s\n",
			h.Quantile(0.5), h.Quantile(0.99), h.Max())
	}
	runs := sink.FixedPointConverged.Value() + sink.FixedPointDiverged.Value()
	if runs > 0 {
		fmt.Printf("fixed-point solver: %d runs (%d converged), %d iterations, wall %s\n",
			runs, sink.FixedPointConverged.Value(),
			sink.FixedPointIterations.Value(), sink.FixedPointDuration.Sum())
	}
	if n := sink.RouteSelectDuration.Count(); n > 0 {
		fmt.Printf("route selection: %d runs, %d candidates considered, wall %s\n",
			n, sink.RouteSelectCandidates.Value(), sink.RouteSelectDuration.Sum())
	}
}

func cmdTopology(args []string) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	c := addCommon(fs)
	format := fs.String("format", "json", "output format: json | dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	net, err := c.network()
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		return topology.Encode(os.Stdout, net)
	case "dot":
		return topology.EncodeDOT(os.Stdout, net)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
