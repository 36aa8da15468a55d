package sim

import (
	"fmt"
	"strings"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/traffic"
)

// TestCheckAgainstBounds runs the TestSimulatedDelayWithinAnalyticBound
// scenario through the packaged validator: the observed worst case must
// land within the analytic bound, identically whether the re-solve runs
// sequentially or on the parallel sweep pool.
func TestCheckAgainstBounds(t *testing.T) {
	net := lineNet(t, 4)
	voice := traffic.Voice()
	const nFlows = 20

	rs := routes.NewSet(net)
	path := []int{0, 1, 2, 3}
	r, err := routes.FromRouterPath(net, "voice", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Add(r); err != nil {
		t.Fatal(err)
	}
	alpha := nFlows * voice.Bucket.Rate / 100e6
	inputs := []delay.ClassInput{{Class: voice, Alpha: alpha, Routes: rs}}

	s, _ := New(net, Config{Seed: 5})
	srvPath := serverPath(t, net, path...)
	for i := 0; i < nFlows; i++ {
		f := voiceFlow(srvPath)
		f.Pattern = GreedyBurst
		if _, err := s.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Run(2.0)
	if err != nil {
		t.Fatal(err)
	}

	bc, err := CheckAgainstBounds(delay.NewModel(net), inputs, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Classes) != 1 || !bc.AllWithin || !bc.Classes[0].Within {
		t.Fatalf("verified run reported out of bounds: %+v", bc)
	}
	if c := bc.Classes[0]; c.Class != "voice" || c.Observed <= 0 || c.Observed > c.Bound {
		t.Fatalf("implausible check %+v", c)
	}

	if _, err := CheckAgainstBounds(nil, inputs, out); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := CheckAgainstBounds(delay.NewModel(net), nil, out); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, err := CheckAgainstBounds(delay.NewModel(net), inputs, nil); err == nil {
		t.Fatal("nil results accepted")
	}
}

// TestCheckAgainstBoundsViolationReporting injects a synthetic bound
// violation and pins the failure surface: the verdict must name the
// class, the bounding route, the observed maximum and the bound, so a
// CI failure is actionable without re-running the simulation.
func TestCheckAgainstBoundsViolationReporting(t *testing.T) {
	net := lineNet(t, 4)
	voice := traffic.Voice()

	rs := routes.NewSet(net)
	path := []int{0, 1, 2, 3}
	r, err := routes.FromRouterPath(net, "voice", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Add(r); err != nil {
		t.Fatal(err)
	}
	alpha := 20 * voice.Bucket.Rate / 100e6
	inputs := []delay.ClassInput{{Class: voice, Alpha: alpha, Routes: rs}}
	m := delay.NewModel(net)

	// Establish the analytic bound, then claim an observation beyond it.
	base, err := CheckObservedMax(m, inputs, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	bound := base.Classes[0].Bound
	if bound <= 0 {
		t.Fatalf("no positive bound to violate: %+v", base.Classes[0])
	}
	injected := 2 * bound

	out := &Results{PerClass: []ClassStats{{MaxQueueing: injected}}}
	bc, err := CheckAgainstBounds(m, inputs, out)
	if err != nil {
		t.Fatal(err)
	}
	if bc.AllWithin {
		t.Fatalf("injected violation passed the check: %+v", bc)
	}
	vs := bc.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), bc)
	}
	c := vs[0]
	if c.Class != "voice" || c.Within {
		t.Fatalf("wrong violated class: %+v", c)
	}
	if c.Observed != injected || c.Bound != bound {
		t.Fatalf("violation lost the numbers: %+v (want observed %g bound %g)", c, injected, bound)
	}
	if c.RouteIndex != 0 || c.Route == "" || c.Route == "<none>" {
		t.Fatalf("violation lost the route: %+v", c)
	}
	if m := c.Margin(); m >= 0 {
		t.Fatalf("violated class reports non-negative margin %g", m)
	}

	// The rendered verdict must carry class, route, observed and bound.
	verdict := bc.Verdict()
	for _, want := range []string{
		"VIOLATION",
		"voice",
		c.Route,
		fmt.Sprintf("%.6g", injected),
		fmt.Sprintf("%.6g", bound),
	} {
		if !strings.Contains(verdict, want) {
			t.Fatalf("verdict %q missing %q", verdict, want)
		}
	}

	// A clean check renders an all-clear, not a violation list.
	okVerdict := base.Verdict()
	if strings.Contains(okVerdict, "VIOLATION") || !strings.Contains(okVerdict, "ok") {
		t.Fatalf("clean verdict looks wrong: %q", okVerdict)
	}

	// Observed/inputs length mismatch is an error, not a silent pass.
	if _, err := CheckObservedMax(m, inputs, []float64{0, 0}); err == nil {
		t.Fatal("mismatched observed slice accepted")
	}
}
