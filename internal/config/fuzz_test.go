package config

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodePolicyConfig throws arbitrary bytes at the policy
// decoder: it must never panic, and any document it accepts must
// survive a marshal → decode round trip unchanged (defaults are a
// fixed point) and must Build without error for kinds that need no
// load probe.
func FuzzDecodePolicyConfig(f *testing.F) {
	f.Add(`{"kind":"always_admit"}`)
	f.Add(`{"kind":"token_bucket","rate":100,"burst":500}`)
	f.Add(`{"kind":"token_bucket","rate":100,"burst":500,"tenants":{"gold":{"rate":50,"burst":200}}}`)
	f.Add(`{"kind":"slo_gated","standard_max":0.9,"sheddable_max":0.7,"tiers":{"gold":"critical","bronze":"sheddable"}}`)
	f.Add(`{"kind":"slo_gated","sample_interval_ms":-1}`)
	f.Add(`{"kind":"reserve_headroom","fraction":0.1,"protected":["gold","voice"]}`)
	f.Add(`{"kind":"token_bucket","rate":1e309,"burst":5}`)
	f.Add(`{"kind":"reserve_headroom","fraction":0.1}{}`)
	f.Add(`{"kind":"nope"}`)
	f.Add(`[]`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, doc string) {
		pc, err := DecodePolicyConfig([]byte(doc))
		if err != nil {
			return // rejection is fine; panics are not
		}
		out, err := json.Marshal(pc)
		if err != nil {
			t.Fatalf("accepted policy failed to marshal: %v", err)
		}
		back, err := DecodePolicyConfig(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !reflect.DeepEqual(pc, back) {
			t.Fatalf("round trip changed the policy: %+v vs %+v", pc, back)
		}
		if pc.Kind != "slo_gated" {
			if _, err := pc.Build(nil); err != nil {
				t.Fatalf("accepted policy failed to build: %v", err)
			}
		} else if _, err := pc.Build(func() float64 { return 0 }); err != nil {
			t.Fatalf("accepted slo_gated failed to build: %v", err)
		}
	})
}
