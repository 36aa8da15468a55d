package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ubac/internal/policy"
)

// PolicyConfig selects and parameterizes the daemon's admission
// policy (the decision layer in front of the utilization test). One
// document configures exactly one policy kind; fields belonging to
// other kinds must be absent — the decoder is strict so a typo'd
// threshold fails loudly at boot instead of silently admitting
// everything.
type PolicyConfig struct {
	// Kind is "always_admit" (the default paper behavior),
	// "token_bucket", "slo_gated" or "reserve_headroom".
	Kind string `json:"kind"`

	// token_bucket: Rate is tokens (flows) per second, Burst the
	// accumulated-credit cap, for the default bucket shared by tenants
	// without a dedicated entry in Tenants.
	Rate    float64                 `json:"rate,omitempty"`
	Burst   float64                 `json:"burst,omitempty"`
	Tenants map[string]BucketConfig `json:"tenants,omitempty"`

	// slo_gated: Tiers maps tenant or class names to
	// "critical"|"standard"|"sheddable"; DefaultTier (default
	// "standard") covers unmapped names. StandardMax and SheddableMax
	// are load thresholds in (0,1] (defaults 0.9 and 0.7);
	// SampleIntervalMS spaces load-signal probes (default 10ms, 0 uses
	// the default; negative probes on every decision).
	Tiers            map[string]string `json:"tiers,omitempty"`
	DefaultTier      string            `json:"default_tier,omitempty"`
	StandardMax      float64           `json:"standard_max,omitempty"`
	SheddableMax     float64           `json:"sheddable_max,omitempty"`
	SampleIntervalMS float64           `json:"sample_interval_ms,omitempty"`

	// reserve_headroom: Fraction ∈ (0,1) of every reservation pool held
	// back; Protected lists tenant or class names exempt from the
	// reserve.
	Fraction  float64  `json:"fraction,omitempty"`
	Protected []string `json:"protected,omitempty"`
}

// BucketConfig is one tenant's token-bucket sizing in a PolicyConfig.
type BucketConfig struct {
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
}

// Defaults applied by DecodePolicyConfig / Validate.
const (
	DefaultPolicyTier       = "standard"
	DefaultStandardMax      = 0.9
	DefaultSheddableMax     = 0.7
	DefaultSampleIntervalMS = 10
)

// policyKinds is the closed set of Kind values.
var policyKinds = map[string]bool{
	"always_admit":     true,
	"token_bucket":     true,
	"slo_gated":        true,
	"reserve_headroom": true,
}

// DecodePolicyConfig decodes and validates one policy document. Like
// daemon.ParseFile it is strict and total: any byte slice either
// yields a valid PolicyConfig with defaults applied or an error, never
// a panic (fuzz-tested by FuzzDecodePolicyConfig).
func DecodePolicyConfig(data []byte) (*PolicyConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var pc PolicyConfig
	if err := dec.Decode(&pc); err != nil {
		return nil, fmt.Errorf("config: policy: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("config: policy: trailing data after policy object")
	}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	return &pc, nil
}

// finitePositive rejects NaN, infinities, zero and negatives.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 0)
}

// Validate checks the configuration and applies kind-specific
// defaults. Fields belonging to other kinds must be zero.
func (pc *PolicyConfig) Validate() error {
	if pc.Kind == "" {
		return fmt.Errorf("config: policy: missing kind")
	}
	if !policyKinds[pc.Kind] {
		return fmt.Errorf("config: policy: kind %q not one of always_admit|token_bucket|slo_gated|reserve_headroom", pc.Kind)
	}
	// Normalize empty containers to nil so a validated config is a
	// marshal → decode fixed point (omitempty drops empty maps).
	if len(pc.Tenants) == 0 {
		pc.Tenants = nil
	}
	if len(pc.Tiers) == 0 {
		pc.Tiers = nil
	}
	if len(pc.Protected) == 0 {
		pc.Protected = nil
	}
	// Reject fields that belong to a different kind, so a document
	// never half-applies.
	if pc.Kind != "token_bucket" && (pc.Rate != 0 || pc.Burst != 0 || len(pc.Tenants) != 0) {
		return fmt.Errorf("config: policy: rate/burst/tenants are token_bucket fields (kind %q)", pc.Kind)
	}
	if pc.Kind != "slo_gated" && (len(pc.Tiers) != 0 || pc.DefaultTier != "" ||
		pc.StandardMax != 0 || pc.SheddableMax != 0 || pc.SampleIntervalMS != 0) {
		return fmt.Errorf("config: policy: tiers/thresholds are slo_gated fields (kind %q)", pc.Kind)
	}
	if pc.Kind != "reserve_headroom" && (pc.Fraction != 0 || len(pc.Protected) != 0) {
		return fmt.Errorf("config: policy: fraction/protected are reserve_headroom fields (kind %q)", pc.Kind)
	}
	switch pc.Kind {
	case "token_bucket":
		if !finitePositive(pc.Rate) {
			return fmt.Errorf("config: policy: token_bucket rate %g must be positive and finite", pc.Rate)
		}
		if !(pc.Burst >= 1) || math.IsInf(pc.Burst, 0) {
			return fmt.Errorf("config: policy: token_bucket burst %g must be >= 1 and finite", pc.Burst)
		}
		for name, b := range pc.Tenants {
			if name == "" {
				return fmt.Errorf("config: policy: empty tenant name")
			}
			if !finitePositive(b.Rate) {
				return fmt.Errorf("config: policy: tenant %q rate %g must be positive and finite", name, b.Rate)
			}
			if !(b.Burst >= 1) || math.IsInf(b.Burst, 0) {
				return fmt.Errorf("config: policy: tenant %q burst %g must be >= 1 and finite", name, b.Burst)
			}
		}
	case "slo_gated":
		if pc.DefaultTier == "" {
			pc.DefaultTier = DefaultPolicyTier
		}
		if _, err := policy.ParseTier(pc.DefaultTier); err != nil {
			return fmt.Errorf("config: policy: default_tier: %w", err)
		}
		for name, tier := range pc.Tiers {
			if name == "" {
				return fmt.Errorf("config: policy: empty name in tiers")
			}
			if _, err := policy.ParseTier(tier); err != nil {
				return fmt.Errorf("config: policy: tier of %q: %w", name, err)
			}
		}
		if pc.StandardMax == 0 {
			pc.StandardMax = DefaultStandardMax
		}
		if pc.SheddableMax == 0 {
			pc.SheddableMax = DefaultSheddableMax
		}
		if !(pc.StandardMax > 0 && pc.StandardMax <= 1) {
			return fmt.Errorf("config: policy: standard_max %g out of (0,1]", pc.StandardMax)
		}
		if !(pc.SheddableMax > 0 && pc.SheddableMax <= 1) {
			return fmt.Errorf("config: policy: sheddable_max %g out of (0,1]", pc.SheddableMax)
		}
		if pc.SheddableMax > pc.StandardMax {
			return fmt.Errorf("config: policy: sheddable_max %g above standard_max %g", pc.SheddableMax, pc.StandardMax)
		}
		if math.IsNaN(pc.SampleIntervalMS) || math.IsInf(pc.SampleIntervalMS, 0) {
			return fmt.Errorf("config: policy: invalid sample_interval_ms %g", pc.SampleIntervalMS)
		}
		if pc.SampleIntervalMS == 0 {
			pc.SampleIntervalMS = DefaultSampleIntervalMS
		}
	case "reserve_headroom":
		if !(pc.Fraction > 0 && pc.Fraction < 1) { // also rejects NaN
			return fmt.Errorf("config: policy: reserve fraction %g out of (0,1)", pc.Fraction)
		}
		for _, name := range pc.Protected {
			if name == "" {
				return fmt.Errorf("config: policy: empty protected name")
			}
		}
	}
	return nil
}

// Build constructs the configured policy. sample supplies the
// cluster-load probe for slo_gated (typically
// admission.Controller.MaxUtilization); it may be nil for every other
// kind. The caller installs the result with Controller.SetPolicy
// (always_admit builds policy.AlwaysAdmit, which SetPolicy strips to
// the nil fast path).
func (pc *PolicyConfig) Build(sample func() float64) (policy.Policy, error) {
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	switch pc.Kind {
	case "always_admit":
		return policy.AlwaysAdmit{}, nil
	case "token_bucket":
		var tenants map[string]policy.BucketConfig
		if len(pc.Tenants) > 0 {
			tenants = make(map[string]policy.BucketConfig, len(pc.Tenants))
			for name, b := range pc.Tenants {
				tenants[name] = policy.BucketConfig{Rate: b.Rate, Burst: b.Burst}
			}
		}
		return policy.NewTokenBucket(policy.BucketConfig{Rate: pc.Rate, Burst: pc.Burst}, tenants)
	case "slo_gated":
		if sample == nil {
			return nil, fmt.Errorf("config: policy: slo_gated needs a load probe")
		}
		var tiers map[string]policy.Tier
		if len(pc.Tiers) > 0 {
			tiers = make(map[string]policy.Tier, len(pc.Tiers))
			for name, s := range pc.Tiers {
				t, err := policy.ParseTier(s)
				if err != nil {
					return nil, err
				}
				tiers[name] = t
			}
		}
		def, err := policy.ParseTier(pc.DefaultTier)
		if err != nil {
			return nil, err
		}
		load := &policy.SampledLoad{
			Sample:   sample,
			Interval: time.Duration(pc.SampleIntervalMS * float64(time.Millisecond)),
		}
		return policy.NewSLOGated(tiers, def, pc.StandardMax, pc.SheddableMax, load)
	case "reserve_headroom":
		return policy.NewReserveHeadroom(pc.Fraction, pc.Protected)
	}
	return nil, fmt.Errorf("config: policy: kind %q", pc.Kind) // unreachable after Validate
}

// ParsePolicySpec resolves the shared -policy flag syntax:
//
//	always_admit
//	token_bucket:rate=100,burst=500
//	slo_gated:standard=0.9,sheddable=0.7,gold=critical,bronze=sheddable
//	reserve_headroom:fraction=0.1,protected=gold+voice
//	@policy.json  (a PolicyConfig document)
//
// Unknown keys are errors. The empty spec means always_admit.
func ParsePolicySpec(spec string) (*PolicyConfig, error) {
	if spec == "" {
		return &PolicyConfig{Kind: "always_admit"}, nil
	}
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("config: policy: %w", err)
		}
		return DecodePolicyConfig(data)
	}
	kind, rest, hasArgs := strings.Cut(spec, ":")
	pc := &PolicyConfig{Kind: kind}
	if !policyKinds[kind] {
		return nil, fmt.Errorf("config: policy: kind %q not one of always_admit|token_bucket|slo_gated|reserve_headroom", kind)
	}
	if hasArgs && rest == "" {
		return nil, fmt.Errorf("config: policy: empty argument list in %q", spec)
	}
	var args []string
	if hasArgs {
		args = strings.Split(rest, ",")
	}
	num := func(key, val string) (float64, error) {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0, fmt.Errorf("config: policy: %s=%q is not a number", key, val)
		}
		return v, nil
	}
	for _, arg := range args {
		key, val, ok := strings.Cut(arg, "=")
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("config: policy: malformed argument %q (want key=value)", arg)
		}
		var err error
		switch {
		case kind == "token_bucket" && key == "rate":
			pc.Rate, err = num(key, val)
		case kind == "token_bucket" && key == "burst":
			pc.Burst, err = num(key, val)
		case kind == "slo_gated" && key == "standard":
			pc.StandardMax, err = num(key, val)
		case kind == "slo_gated" && key == "sheddable":
			pc.SheddableMax, err = num(key, val)
		case kind == "slo_gated" && key == "default":
			pc.DefaultTier = val
		case kind == "slo_gated" && key == "sample_ms":
			pc.SampleIntervalMS, err = num(key, val)
		case kind == "slo_gated":
			// Any other key is a tenant/class tier assignment.
			if _, terr := policy.ParseTier(val); terr != nil {
				return nil, fmt.Errorf("config: policy: %s=%s: %w", key, val, terr)
			}
			if pc.Tiers == nil {
				pc.Tiers = make(map[string]string)
			}
			pc.Tiers[key] = val
		case kind == "reserve_headroom" && key == "fraction":
			pc.Fraction, err = num(key, val)
		case kind == "reserve_headroom" && key == "protected":
			pc.Protected = strings.Split(val, "+")
		default:
			return nil, fmt.Errorf("config: policy: unknown %s argument %q", kind, key)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	return pc, nil
}

// Describe renders a one-line human summary of the policy for the
// daemon's boot banner.
func (pc *PolicyConfig) Describe() string {
	switch pc.Kind {
	case "token_bucket":
		s := fmt.Sprintf("token_bucket rate=%g burst=%g", pc.Rate, pc.Burst)
		if len(pc.Tenants) > 0 {
			names := make([]string, 0, len(pc.Tenants))
			for name := range pc.Tenants {
				names = append(names, name)
			}
			sort.Strings(names)
			s += " tenants=" + strings.Join(names, ",")
		}
		return s
	case "slo_gated":
		return fmt.Sprintf("slo_gated standard<%g sheddable<%g default=%s tiers=%d",
			pc.StandardMax, pc.SheddableMax, pc.DefaultTier, len(pc.Tiers))
	case "reserve_headroom":
		return fmt.Sprintf("reserve_headroom fraction=%g protected=%s",
			pc.Fraction, strings.Join(pc.Protected, ","))
	default:
		return "always_admit"
	}
}
