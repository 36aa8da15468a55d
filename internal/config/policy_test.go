package config

import (
	"testing"

	"ubac/internal/policy"
)

func TestDecodePolicyConfig(t *testing.T) {
	pc, err := DecodePolicyConfig([]byte(`{
		"kind": "token_bucket", "rate": 100, "burst": 500,
		"tenants": {"gold": {"rate": 50, "burst": 200}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if pc.Kind != "token_bucket" || pc.Rate != 100 || pc.Burst != 500 || pc.Tenants["gold"].Burst != 200 {
		t.Fatalf("decoded %+v", pc)
	}

	pc, err = DecodePolicyConfig([]byte(`{"kind": "slo_gated", "tiers": {"gold": "critical"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if pc.StandardMax != DefaultStandardMax || pc.SheddableMax != DefaultSheddableMax ||
		pc.DefaultTier != DefaultPolicyTier || pc.SampleIntervalMS != DefaultSampleIntervalMS {
		t.Fatalf("slo_gated defaults not applied: %+v", pc)
	}

	bad := []string{
		``,
		`{}`,
		`{"kind": "nope"}`,
		`{"kind": "token_bucket"}`, // missing rate
		`{"kind": "token_bucket", "rate": 1, "burst": 0.5}`,      // burst < 1
		`{"kind": "token_bucket", "rate": 1e999, "burst": 5}`,    // inf
		`{"kind": "always_admit", "rate": 1}`,                    // foreign field
		`{"kind": "token_bucket", "rate": 1, "burst": 5} {}`,     // trailing doc
		`{"kind": "token_bucket", "rate": 1, "burst": 5, "x":1}`, // unknown field
		`{"kind": "slo_gated", "standard_max": 0.5, "sheddable_max": 0.8}`,
		`{"kind": "slo_gated", "default_tier": "golden"}`,
		`{"kind": "slo_gated", "tiers": {"": "critical"}}`,
		`{"kind": "reserve_headroom"}`,
		`{"kind": "reserve_headroom", "fraction": 1.5}`,
		`{"kind": "reserve_headroom", "fraction": 0.1, "protected": [""]}`,
	}
	for _, doc := range bad {
		if _, err := DecodePolicyConfig([]byte(doc)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

func TestParsePolicySpec(t *testing.T) {
	pc, err := ParsePolicySpec("")
	if err != nil || pc.Kind != "always_admit" {
		t.Fatalf("empty spec: %+v, %v", pc, err)
	}
	pc, err = ParsePolicySpec("token_bucket:rate=100,burst=500")
	if err != nil || pc.Rate != 100 || pc.Burst != 500 {
		t.Fatalf("token_bucket spec: %+v, %v", pc, err)
	}
	pc, err = ParsePolicySpec("slo_gated:standard=0.8,sheddable=0.5,gold=critical,bronze=sheddable")
	if err != nil {
		t.Fatal(err)
	}
	if pc.StandardMax != 0.8 || pc.SheddableMax != 0.5 ||
		pc.Tiers["gold"] != "critical" || pc.Tiers["bronze"] != "sheddable" {
		t.Fatalf("slo_gated spec: %+v", pc)
	}
	pc, err = ParsePolicySpec("reserve_headroom:fraction=0.15,protected=gold+voice")
	if err != nil || pc.Fraction != 0.15 || len(pc.Protected) != 2 {
		t.Fatalf("reserve spec: %+v, %v", pc, err)
	}

	for _, spec := range []string{
		"nope",
		"token_bucket:",
		"token_bucket:rate=100",           // burst missing
		"token_bucket:rate=x,burst=5",     // not a number
		"token_bucket:fraction=0.1",       // foreign key
		"slo_gated:gold=golden",           // bad tier
		"reserve_headroom:fraction=0.1,p", // malformed arg
		"@/nonexistent/policy.json",
	} {
		if _, err := ParsePolicySpec(spec); err == nil {
			t.Errorf("accepted spec %q", spec)
		}
	}
}

func TestPolicyBuild(t *testing.T) {
	pc, err := ParsePolicySpec("always_admit")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pc.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(policy.AlwaysAdmit); !ok {
		t.Fatalf("built %T, want AlwaysAdmit", p)
	}

	pc, _ = ParsePolicySpec("token_bucket:rate=10,burst=20")
	if p, err = pc.Build(nil); err != nil {
		t.Fatal(err)
	}
	if p.Name() != "token_bucket" {
		t.Fatalf("built %q", p.Name())
	}

	pc, _ = ParsePolicySpec("slo_gated:standard=0.9,sheddable=0.7")
	if _, err := pc.Build(nil); err == nil {
		t.Fatal("slo_gated built without a load probe")
	}
	p, err = pc.Build(func() float64 { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	g, ok := p.(*policy.SLOGated)
	if !ok {
		t.Fatalf("built %T", p)
	}
	if std, shed := g.Thresholds(); std != 0.9 || shed != 0.7 {
		t.Fatalf("thresholds %g/%g", std, shed)
	}

	pc, _ = ParsePolicySpec("reserve_headroom:fraction=0.25")
	if p, err = pc.Build(nil); err != nil {
		t.Fatal(err)
	}
	if p.Needs()&policy.NeedFill == 0 {
		t.Fatal("reserve_headroom lost NeedFill through config")
	}
}
