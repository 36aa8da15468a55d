package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"ubac/internal/admission"
	"ubac/internal/config"
	"ubac/internal/core"
	"ubac/internal/policy"
	"ubac/internal/sim"
	"ubac/internal/topology"
	"ubac/internal/traffic"
	"ubac/internal/wire"
	"ubac/internal/workload"
)

// scenarioConfig parameterizes -mode scenario: an open-loop,
// virtual-time replay of a generated multi-tenant workload against an
// in-process controller with an admission policy installed. Unlike the
// closed-loop modes it measures *per-tier* overload behavior — which
// tenants absorb the rejections when bursty traffic exceeds the
// verified capacity — deterministically from a seed, with no wall
// clock in the loop.
type scenarioConfig struct {
	topo       string
	alpha      float64
	class      string
	policySpec string
	arrivals   string  // sim.ParseArrivalSpec syntax, without holding=
	mix        string  // tenant=weight[,tenant=weight...] ("" = untenanted)
	holding    float64 // mean call holding time, virtual seconds
	horizon    float64 // generated window, virtual seconds
	seed       int64
}

// tierOutcome is one tier's replay result, split by rejection cause.
type tierOutcome struct {
	workload.BlockingStats
	RejectPolicy   int // shed / rate-limited / reserve by the policy
	RejectCapacity int // refused by the utilization test
}

// scenarioReport is the outcome of one scenario replay.
type scenarioReport struct {
	Overall  workload.BlockingStats
	Tiers    map[string]*tierOutcome
	Describe string  // policy banner
	Offered  float64 // offered load, Erlangs
	IDC      float64 // analytic burstiness of the arrival process (1 = Poisson)
	CV       float64 // empirical interarrival CV of the generated window
	PeakUtil float64 // MaxUtilization high-water mark over the replay
}

// parseMixSpec resolves -mix "gold=1,silver=2,bronze=7" into a
// weighted tenant mix over the scenario's traffic class. Empty spec =
// one untenanted slice.
func parseMixSpec(spec, class string) ([]workload.MixEntry, error) {
	if spec == "" {
		return []workload.MixEntry{{Class: class, Weight: 1}}, nil
	}
	var mix []workload.MixEntry
	for _, arg := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(arg, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed -mix entry %q (want tenant=weight)", arg)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("-mix %s=%q is not a number", name, val)
		}
		mix = append(mix, workload.MixEntry{Class: class, Tenant: name, Weight: w})
	}
	return mix, nil
}

// scenarioAdmitter adapts the controller to workload.ReplayTiered,
// carrying the virtual clock (read by the token-bucket policy) and
// per-tier rejection-cause counts. The replay is single-threaded, so
// the maps need no lock.
type scenarioAdmitter struct {
	ctrl     *admission.Controller
	vnow     atomic.Int64 // virtual unix-nanos, advanced by the schedule
	outcomes map[string]*tierOutcome
	peakUtil float64
}

func (a *scenarioAdmitter) Advance(now float64) {
	// +1 keeps the clock nonzero at t=0 (zero means "unanchored" to the
	// token bucket's refill bookkeeping).
	a.vnow.Store(int64(now*1e9) + 1)
}

func (a *scenarioAdmitter) outcome(class, tenant string) *tierOutcome {
	key := tenant
	if key == "" {
		key = class
	}
	o := a.outcomes[key]
	if o == nil {
		o = &tierOutcome{}
		a.outcomes[key] = o
	}
	return o
}

func (a *scenarioAdmitter) TryAdmitTier(class, tenant string, src, dst int) (uint64, bool) {
	if u := a.ctrl.MaxUtilization(); u > a.peakUtil {
		a.peakUtil = u
	}
	id, err := a.ctrl.AdmitWithTenant(class, tenant, src, dst)
	o := a.outcome(class, tenant)
	if err != nil {
		switch wire.Reason(err) {
		case "policy_token_bucket", "policy_shed", "policy_reserve":
			o.RejectPolicy++
		default:
			o.RejectCapacity++
		}
		return 0, false
	}
	return uint64(id), true
}

func (a *scenarioAdmitter) Release(h uint64) { _ = a.ctrl.Teardown(admission.FlowID(h)) }

// runScenario configures a controller, installs the policy, generates
// the workload and replays it in virtual time.
func runScenario(cfg scenarioConfig) (*scenarioReport, error) {
	if !(cfg.horizon > 0 && cfg.holding > 0) || math.IsInf(cfg.horizon, 0) || math.IsInf(cfg.holding, 0) {
		return nil, fmt.Errorf("-horizon and -holding must be positive and finite")
	}
	net, err := topology.Parse(cfg.topo)
	if err != nil {
		return nil, err
	}
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(net, classes)
	if err != nil {
		return nil, err
	}
	dep, err := sys.Configure(map[string]float64{"voice": cfg.alpha})
	if err != nil {
		return nil, err
	}
	if !dep.Safe() {
		return nil, fmt.Errorf("alpha=%.3f does not verify on %s", cfg.alpha, net.Name())
	}
	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		return nil, err
	}

	pc, err := config.ParsePolicySpec(cfg.policySpec)
	if err != nil {
		return nil, err
	}
	if pc.Kind == "slo_gated" {
		// Virtual-time replay: wall-clock probe spacing is meaningless, so
		// sample the load signal on every decision (deterministic too).
		pc.SampleIntervalMS = -1
	}
	pol, err := pc.Build(ctrl.MaxUtilization)
	if err != nil {
		return nil, err
	}

	adm := &scenarioAdmitter{ctrl: ctrl, outcomes: map[string]*tierOutcome{}}
	if tb, ok := pol.(*policy.TokenBucket); ok {
		tb.Clock = adm.vnow.Load
	}
	ctrl.SetPolicy(pol)

	routed, err := routedPairs(net, ctrl, cfg.class)
	if err != nil {
		return nil, err
	}
	if len(routed) == 0 {
		return nil, fmt.Errorf("no admittable pairs for class %q", cfg.class)
	}
	pairs := make([][2]int, len(routed))
	for i, p := range routed {
		pairs[i] = [2]int{p.src, p.dst}
	}

	arr, err := sim.ParseArrivalSpec(cfg.arrivals)
	if err != nil {
		return nil, err
	}
	// The parse succeeded, so the only key this can match is holding=.
	if strings.Contains(cfg.arrivals, "holding=") {
		return nil, fmt.Errorf("-arrivals takes no holding= key: -holding sets the hold time")
	}
	arr.Holding = cfg.holding
	idc := 1.0
	if arr.Kind == "mmpp" {
		idc = arr.MMPP.IDC()
	}
	src, err := arr.Source(pairs, cfg.horizon, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	mix, err := parseMixSpec(cfg.mix, cfg.class)
	if err != nil {
		return nil, err
	}
	calls := workload.Collect(src)
	if len(calls) == 0 {
		return nil, fmt.Errorf("no calls generated over %.0fs", cfg.horizon)
	}
	// The mix seed is offset so the tenant draw never reuses the
	// arrival stream.
	if err := workload.ApplyMix(calls, mix, cfg.seed+1); err != nil {
		return nil, err
	}

	overall, perTier := workload.ReplayTiered(workload.Schedule(calls), calls, adm)
	rep := &scenarioReport{
		Overall:  overall,
		Tiers:    adm.outcomes,
		Describe: pc.Describe(),
		Offered:  src.OfferedLoad(),
		IDC:      idc,
		CV:       workload.InterarrivalCV(calls),
		PeakUtil: adm.peakUtil,
	}
	// Cross-check the adapter's cause counts against the replay's
	// blocking stats (they observe the same decisions).
	for key, ts := range perTier {
		o := rep.Tiers[key]
		if o == nil {
			o = &tierOutcome{}
			rep.Tiers[key] = o
		}
		o.BlockingStats = *ts
	}
	return rep, nil
}

// printScenarioReport renders the per-tier reject-ratio table.
func printScenarioReport(w io.Writer, cfg scenarioConfig, rep *scenarioReport) {
	fmt.Fprintf(w, "ubacload scenario: topology=%s alpha=%.3f policy=[%s]\n", cfg.topo, cfg.alpha, rep.Describe)
	fmt.Fprintf(w, "  arrivals=%s horizon=%.0fs holding=%.1fs seed=%d: %d calls, %.1f Erlangs offered, IDC=%.1f, interarrival CV=%.2f\n",
		cfg.arrivals, cfg.horizon, cfg.holding, cfg.seed, rep.Overall.Offered, rep.Offered, rep.IDC, rep.CV)
	fmt.Fprintf(w, "  overall: admitted %d  rejected %d (ratio %.4f)  peak_util %.3f\n",
		rep.Overall.Admitted, rep.Overall.Blocked, rep.Overall.Blocking(), rep.PeakUtil)
	keys := make([]string, 0, len(rep.Tiers))
	for k := range rep.Tiers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  %-12s %8s %8s %8s %8s %8s %8s\n",
		"tier", "offered", "admitted", "rejected", "ratio", "policy", "capacity")
	for _, k := range keys {
		o := rep.Tiers[k]
		fmt.Fprintf(w, "  %-12s %8d %8d %8d %8.4f %8d %8d\n",
			k, o.Offered, o.Admitted, o.Blocked, o.Blocking(), o.RejectPolicy, o.RejectCapacity)
	}
}
