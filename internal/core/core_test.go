package core

import (
	"math"
	"testing"

	"ubac/internal/admission"
	"ubac/internal/sim"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

func voiceSystem(t testing.TB, net *topology.Network) *System {
	t.Helper()
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(net, classes)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	classes, err := traffic.NewClassSet(traffic.Voice())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(nil, classes); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewSystem(topology.MCI(), nil); err == nil {
		t.Error("nil classes accepted")
	}
}

func TestAccessors(t *testing.T) {
	net := topology.MCI()
	sys := voiceSystem(t, net)
	if sys.Network() != net || sys.Model() == nil || sys.Config() == nil {
		t.Error("accessors broken")
	}
	if sys.Classes().Len() != 2 {
		t.Error("classes lost")
	}
}

func TestBoundsMatchTable1(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	lb, ub, err := sys.Bounds("voice")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb-0.30) > 0.005 || math.Abs(ub-0.61) > 0.005 {
		t.Errorf("bounds = %.3f/%.3f, paper: 0.30/0.61", lb, ub)
	}
	if _, _, err := sys.Bounds("nope"); err == nil {
		t.Error("unknown class accepted")
	}
	if _, _, err := sys.Bounds("best-effort"); err == nil {
		t.Error("best-effort bounds accepted")
	}
}

func TestConfigureAndDeploy(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	dep, err := sys.Configure(map[string]float64{"voice": 0.30})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Safe() {
		t.Fatalf("configuration at the lower bound unsafe: %+v", dep.Verify)
	}
	if a, ok := dep.Alpha("voice"); !ok || a != 0.30 {
		t.Errorf("alpha = %g,%v", a, ok)
	}
	if _, ok := dep.Alpha("nope"); ok {
		t.Error("unknown class alpha found")
	}
	if got := len(dep.Inputs()); got != 1 {
		t.Errorf("inputs = %d, want 1 (best effort not configured)", got)
	}

	ctrl, err := dep.Controller(admission.AtomicLedger)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ctrl.Admit("voice", 0, 5)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := ctrl.Teardown(id); err != nil {
		t.Fatal(err)
	}
}

func TestConfigureValidation(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	if _, err := sys.Configure(map[string]float64{}); err == nil {
		t.Error("missing assignment accepted")
	}
	// A best-effort-only system cannot be configured.
	be, err := traffic.NewClassSet(traffic.BestEffort(0))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystem(topology.MCI(), be)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Configure(map[string]float64{"best-effort": 0.5}); err == nil {
		t.Error("best-effort-only configure accepted")
	}
}

func TestUnsafeDeploymentRejected(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	dep, err := sys.Configure(map[string]float64{"voice": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Safe() {
		t.Fatal("alpha=0.9 reported safe")
	}
	if _, err := dep.Controller(admission.AtomicLedger); err == nil {
		t.Error("unsafe deployment deployed")
	}
}

func TestMaxUtilizationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow end-to-end search")
	}
	sys := voiceSystem(t, topology.MCI())
	res, err := sys.MaxUtilization("voice")
	if err != nil {
		t.Fatal(err)
	}
	if res.Alpha < res.Lower || res.Alpha > res.Upper {
		t.Errorf("alpha %.3f outside bounds [%.3f, %.3f]", res.Alpha, res.Lower, res.Upper)
	}
	if _, err := sys.MaxUtilization("nope"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestSimulatorValidatesBound(t *testing.T) {
	net, err := topology.Line(4, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	sys := voiceSystem(t, net)
	dep, err := sys.Configure(map[string]float64{"voice": 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Safe() {
		t.Fatal("line config unsafe")
	}
	bound, err := dep.AnalyticWorstRoute("voice")
	if err != nil {
		t.Fatal(err)
	}
	sm, err := dep.Simulator(sim.Config{Seed: 11}, 3, sim.GreedyBurst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sm.Run(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerClass[0].MaxQueueing; got > bound {
		t.Errorf("simulated %g exceeds analytic bound %g", got, bound)
	}
	if res.PerClass[0].Late != 0 {
		t.Errorf("late packets under a verified configuration: %d", res.PerClass[0].Late)
	}
}

func TestSimulatorValidation(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	dep, err := sys.Configure(map[string]float64{"voice": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Simulator(sim.Config{}, 0, sim.CBR); err == nil {
		t.Error("flowsPerRoute=0 accepted")
	}
}

func TestAnalyticWorstRouteErrors(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	dep, err := sys.Configure(map[string]float64{"voice": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.AnalyticWorstRoute("nope"); err == nil {
		t.Error("unknown class accepted")
	}
	if w, err := dep.AnalyticWorstRoute("voice"); err != nil || w <= 0 {
		t.Errorf("worst = %g, %v", w, err)
	}
}

func TestVerifyAssignmentPassthrough(t *testing.T) {
	sys := voiceSystem(t, topology.MCI())
	dep, err := sys.Configure(map[string]float64{"voice": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.VerifyAssignment(dep.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe {
		t.Error("re-verification of a safe deployment failed")
	}
}
