package sim

import (
	"fmt"
	"strings"

	"ubac/internal/delay"
)

// ClassBoundCheck compares one class's simulated worst-case against its
// analytic bound.
type ClassBoundCheck struct {
	// Class is the traffic class name.
	Class string `json:"class"`
	// Observed is the worst end-to-end queueing delay the run measured
	// for the class, in seconds.
	Observed float64 `json:"observed"`
	// Bound is the analytic worst route bound (queueing only), in
	// seconds.
	Bound float64 `json:"bound"`
	// Route names the route carrying the class's worst analytic bound
	// ("src->dst/hops"), the route a violation is charged against.
	Route string `json:"route"`
	// RouteIndex is that route's index in the class's route set, -1 if
	// the set is empty.
	RouteIndex int `json:"route_index"`
	// Within reports Observed <= Bound (up to solver tolerance).
	Within bool `json:"within"`
}

// Margin returns the fraction of the bound left unused,
// (Bound − Observed) / Bound — 1 means no queueing was observed, 0
// means the bound was met exactly, negative means a violation. Zero
// bound reports no margin.
func (c ClassBoundCheck) Margin() float64 {
	if c.Bound <= 0 {
		return 0
	}
	return (c.Bound - c.Observed) / c.Bound
}

// Verdict renders the check as one line naming the class, the bounding
// route, the observed maximum and the bound — the shape CI failures
// surface.
func (c ClassBoundCheck) Verdict() string {
	if c.Within {
		return fmt.Sprintf("ok: class %s route %s observed %.6gs <= bound %.6gs (margin %.1f%%)",
			c.Class, c.Route, c.Observed, c.Bound, 100*c.Margin())
	}
	return fmt.Sprintf("VIOLATION: class %s route %s observed %.6gs > bound %.6gs (excess %.6gs)",
		c.Class, c.Route, c.Observed, c.Bound, c.Observed-c.Bound)
}

// BoundCheck is the outcome of validating one simulation run against
// the configuration-time delay analysis.
type BoundCheck struct {
	// Classes holds one check per input class, in priority order.
	Classes []ClassBoundCheck `json:"classes"`
	// AllWithin reports whether every class stayed within its bound —
	// the paper's validation claim for the run.
	AllWithin bool `json:"all_within"`
}

// Violations returns the checks that failed, in class order.
func (b *BoundCheck) Violations() []ClassBoundCheck {
	var v []ClassBoundCheck
	for _, c := range b.Classes {
		if !c.Within {
			v = append(v, c)
		}
	}
	return v
}

// Verdict renders the whole check: one line per violated class, or a
// single all-clear line.
func (b *BoundCheck) Verdict() string {
	vs := b.Violations()
	if len(vs) == 0 {
		return fmt.Sprintf("ok: all %d classes within their verified bounds", len(b.Classes))
	}
	lines := make([]string, len(vs))
	for i, c := range vs {
		lines[i] = c.Verdict()
	}
	return strings.Join(lines, "\n")
}

// CheckAgainstBounds validates a finished run against the
// configuration-time analysis: it re-solves the delay fixed point with
// m, takes each class's worst route bound, and compares it to the run's
// observed per-class worst queueing delay. inputs must be priority-ordered and parallel to
// the run's class indexes (simulated class i carries inputs[i]).
func CheckAgainstBounds(m *delay.Model, inputs []delay.ClassInput, out *Results) (*BoundCheck, error) {
	if m == nil || out == nil {
		return nil, fmt.Errorf("sim: nil model or results")
	}
	observed := make([]float64, len(inputs))
	for i := range inputs {
		if i < len(out.PerClass) {
			observed[i] = out.PerClass[i].MaxQueueing
		}
	}
	return CheckObservedMax(m, inputs, observed)
}

// CheckObservedMax is the core of CheckAgainstBounds for callers that
// carry their own per-class observed maxima (the flow-lifetime scale
// harness streams statistics instead of building a Results). observed
// must be parallel to inputs; a class the run never exercised passes
// trivially with Observed 0.
func CheckObservedMax(m *delay.Model, inputs []delay.ClassInput, observed []float64) (*BoundCheck, error) {
	if m == nil {
		return nil, fmt.Errorf("sim: nil model")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("sim: no classes to check")
	}
	if len(observed) != len(inputs) {
		return nil, fmt.Errorf("sim: %d observed maxima for %d classes", len(observed), len(inputs))
	}
	v, err := m.Verify(inputs)
	if err != nil {
		return nil, err
	}
	if !v.Converged {
		return nil, fmt.Errorf("sim: delay fixed point diverged; configuration unsafe")
	}
	net := m.Network()
	bc := &BoundCheck{AllWithin: true}
	for i, in := range inputs {
		bound, ri := in.Routes.MaxRouteDelay(v.Results[i].D)
		route := "<none>"
		if ri >= 0 && ri < in.Routes.Len() {
			rt := in.Routes.Route(ri)
			route = fmt.Sprintf("%s->%s/%d",
				net.Router(rt.Src).Name, net.Router(rt.Dst).Name, rt.Hops())
		} else {
			ri = -1
		}
		within := delay.MeetsDeadline(observed[i], bound)
		if !within {
			bc.AllWithin = false
		}
		bc.Classes = append(bc.Classes, ClassBoundCheck{
			Class:      in.Class.Name,
			Observed:   observed[i],
			Bound:      bound,
			Route:      route,
			RouteIndex: ri,
			Within:     within,
		})
	}
	return bc, nil
}
