package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// overloadScenario is a line:2 overload: ~3600 Erlangs of strongly
// bursty traffic (IDC 769) against ~1250 flows of verified capacity
// per direction, split 10/20/70 across three tenants.
func overloadScenario(policySpec string) scenarioConfig {
	return scenarioConfig{
		topo: "line:2", alpha: 0.40, class: "voice",
		arrivals: "mmpp:high=300,low=0,on=2,off=8",
		mix:      "gold=1,silver=2,bronze=7",
		holding:  60, horizon: 120, seed: 42,
		policySpec: policySpec,
	}
}

// TestScenarioSLOCascade is the overload-behavior experiment in
// miniature: under an SLO-gated policy the critical tenant rides
// through a burst overload with zero rejects while the sheddable
// tenant absorbs them, and the load signal caps the pool below the
// standard threshold. The always-admit baseline on the identical
// workload rejects every tier roughly uniformly.
func TestScenarioSLOCascade(t *testing.T) {
	gated, err := runScenario(overloadScenario(
		"slo_gated:standard=0.9,sheddable=0.7,gold=critical,silver=standard,bronze=sheddable"))
	if err != nil {
		t.Fatal(err)
	}
	gold, bronze := gated.Tiers["gold"], gated.Tiers["bronze"]
	if gold == nil || bronze == nil {
		t.Fatalf("missing tiers in %v", gated.Tiers)
	}
	if gold.Blocked != 0 {
		t.Errorf("critical tenant rejected %d times under slo_gated, want 0", gold.Blocked)
	}
	if bronze.RejectPolicy == 0 || bronze.Blocking() < 0.3 {
		t.Errorf("sheddable tenant = %+v, want substantial policy shedding", bronze)
	}
	if gated.PeakUtil > 0.91 {
		t.Errorf("peak util %.3f, want capped near the standard threshold", gated.PeakUtil)
	}
	if gated.Overall.Offered != gated.Overall.Admitted+gated.Overall.Blocked {
		t.Errorf("outcomes don't sum: %+v", gated.Overall)
	}

	base, err := runScenario(overloadScenario("always_admit"))
	if err != nil {
		t.Fatal(err)
	}
	bGold := base.Tiers["gold"]
	if bGold == nil || bGold.Blocked == 0 {
		t.Errorf("always_admit gold = %+v, want capacity rejects (uniform pain)", bGold)
	}
	if bGold != nil && bGold.RejectPolicy != 0 {
		t.Errorf("always_admit produced %d policy rejects", bGold.RejectPolicy)
	}
	if base.PeakUtil < 0.99 {
		t.Errorf("always_admit peak util %.3f, want saturation", base.PeakUtil)
	}

	// Same seed → byte-identical replay.
	again, err := runScenario(overloadScenario("always_admit"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Error("scenario replay is not deterministic under a fixed seed")
	}

	// The report renders every tier with its ratio.
	var buf bytes.Buffer
	printScenarioReport(&buf, overloadScenario("always_admit"), base)
	out := buf.String()
	for _, want := range []string{"gold", "silver", "bronze", "peak_util", "Erlangs"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioTokenBucketVirtualTime replays against a token-bucket
// policy on the virtual clock: with the default bucket refilling at 5
// flows/s against ~60 offered/s during bursts, most attempts are
// rate-rejected — far more than capacity alone would refuse — and the
// count is exactly reproducible.
func TestScenarioTokenBucketVirtualTime(t *testing.T) {
	cfg := overloadScenario("token_bucket:rate=5,burst=10")
	cfg.mix = "" // untenanted: everything shares the default bucket
	rep, err := runScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Tiers["voice"]
	if o == nil {
		t.Fatalf("no voice tier in %v", rep.Tiers)
	}
	if o.RejectPolicy == 0 {
		t.Fatal("no rate rejections from the token bucket")
	}
	// Refill is bounded by rate·horizon + burst on the virtual clock;
	// the realized count sits well below it because credit accumulated
	// during the ~8s silent gaps clamps to the 10-token burst cap.
	maxAdmits := int(5*cfg.horizon) + 10
	if o.Admitted > maxAdmits {
		t.Errorf("admitted %d, over the virtual-time refill bound %d", o.Admitted, maxAdmits)
	}
	if o.Admitted < maxAdmits/6 {
		t.Errorf("admitted %d, want a refill-dominated count near %d/3 (clock not advancing?)", o.Admitted, maxAdmits)
	}

	again, err := runScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("token-bucket replay is not deterministic under a fixed seed")
	}
}

func TestScenarioSpecErrors(t *testing.T) {
	bad := []scenarioConfig{
		func() scenarioConfig { c := overloadScenario(""); c.arrivals = "uniform:rate=1"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.arrivals = "poisson:rate=zero"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.arrivals = "mmpp:high=1"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.arrivals = "poisson:rate=1,extra=2"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.arrivals = "poisson:rate=5,rate=500"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.arrivals = "poisson:rate=5,holding=3"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.mix = "gold"; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.mix = "gold=-1"; return c }(),
		func() scenarioConfig { c := overloadScenario("nope:spec"); return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.horizon = 0; return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.horizon = math.NaN(); return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.horizon = math.Inf(1); return c }(),
		func() scenarioConfig { c := overloadScenario(""); c.class = "nope"; return c }(),
	}
	for i, cfg := range bad {
		if _, err := runScenario(cfg); err == nil {
			t.Errorf("case %d: %+v ran", i, cfg)
		}
	}
}
