package policy

import "fmt"

// Tier is an SLO class. Critical traffic is never shed by the gate;
// standard and sheddable traffic are refused once the cluster load
// signal crosses their thresholds, sheddable first.
type Tier uint8

const (
	// TierCritical traffic always proceeds to the utilization test.
	TierCritical Tier = iota
	// TierStandard traffic is shed above the standard threshold.
	TierStandard
	// TierSheddable traffic is shed above the (tighter) sheddable
	// threshold — the first traffic to go under load.
	TierSheddable
)

// String returns "critical" | "standard" | "sheddable".
func (t Tier) String() string {
	switch t {
	case TierCritical:
		return "critical"
	case TierStandard:
		return "standard"
	case TierSheddable:
		return "sheddable"
	default:
		return "unknown"
	}
}

// ParseTier resolves a tier name.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "critical":
		return TierCritical, nil
	case "standard":
		return TierStandard, nil
	case "sheddable":
		return TierSheddable, nil
	default:
		return 0, fmt.Errorf("policy: tier %q not one of critical|standard|sheddable", s)
	}
}

// SLOGated is the priority-cascade gate: admission attempts carry an
// SLO tier (resolved from the tenant name first, then the traffic
// class name, then the default), and non-critical tiers are gated on
// a cluster-load signal. With StandardMax = 0.9 and SheddableMax =
// 0.7, sheddable traffic stops being admitted once the busiest
// reservation pool passes 70% while standard traffic rides to 90%,
// and critical traffic is only ever refused by the utilization test
// itself — the shape that keeps critical reject ratios ≈ 0 through
// bursts that would otherwise reject uniformly across tiers.
//
// The tier maps are fixed at construction (read-only afterwards), so
// concurrent decisions need no lock; the load signal is read once per
// gated decision.
type SLOGated struct {
	tiers   map[string]Tier // tenant or class name → tier
	def     Tier
	stdMax  float64
	shedMax float64
	load    LoadSignal
}

// NewSLOGated builds the gate. tiers maps tenant or traffic-class
// names to their SLO tier (may be empty — every attempt then takes
// def). standardMax and sheddableMax are load thresholds in (0, 1]
// with sheddableMax <= standardMax. load supplies the cluster load
// signal (required).
func NewSLOGated(tiers map[string]Tier, def Tier, standardMax, sheddableMax float64, load LoadSignal) (*SLOGated, error) {
	if load == nil {
		return nil, fmt.Errorf("policy: slo_gated needs a load signal")
	}
	if !(standardMax > 0 && standardMax <= 1) {
		return nil, fmt.Errorf("policy: standard threshold %g out of (0,1]", standardMax)
	}
	if !(sheddableMax > 0 && sheddableMax <= 1) {
		return nil, fmt.Errorf("policy: sheddable threshold %g out of (0,1]", sheddableMax)
	}
	if sheddableMax > standardMax {
		return nil, fmt.Errorf("policy: sheddable threshold %g above standard threshold %g — sheddable must shed first",
			sheddableMax, standardMax)
	}
	g := &SLOGated{def: def, stdMax: standardMax, shedMax: sheddableMax, load: load}
	if len(tiers) > 0 {
		g.tiers = make(map[string]Tier, len(tiers))
		for name, t := range tiers {
			if name == "" {
				return nil, fmt.Errorf("policy: empty name in tier map")
			}
			g.tiers[name] = t
		}
	}
	return g, nil
}

// TierOf resolves the tier of an attempt: tenant mapping first, then
// class mapping, then the default.
func (g *SLOGated) TierOf(tenant, class string) Tier {
	if g.tiers != nil {
		if tenant != "" {
			if t, ok := g.tiers[tenant]; ok {
				return t
			}
		}
		if t, ok := g.tiers[class]; ok {
			return t
		}
	}
	return g.def
}

// Decide implements Policy.
func (g *SLOGated) Decide(ctx DecisionContext) Verdict {
	switch g.TierOf(ctx.Tenant, ctx.Class) {
	case TierCritical:
		return Allow
	case TierStandard:
		if g.load.Load() < g.stdMax {
			return Allow
		}
	default: // TierSheddable
		if g.load.Load() < g.shedMax {
			return Allow
		}
	}
	return DenyShed
}

// Needs implements Policy.
func (g *SLOGated) Needs() Needs { return 0 }

// Name implements Policy.
func (g *SLOGated) Name() string { return "slo_gated" }

// Thresholds returns the configured (standard, sheddable) load
// thresholds.
func (g *SLOGated) Thresholds() (standardMax, sheddableMax float64) {
	return g.stdMax, g.shedMax
}
