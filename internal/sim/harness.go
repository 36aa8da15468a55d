package sim

import (
	"fmt"
	"math/rand"

	"ubac/internal/admission"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/traffic"
)

// RunScaleSpec executes a parsed scale specification end to end: route
// selection for every class, safety verification, a real admission
// controller under the virtual clock, the flow-lifetime simulation,
// and the bound-vs-observed verdict attached to the report. This is
// the one code path both the CLI and the CI property gate run.
//
// classes defaults to the paper's voice class; sel defaults to
// shortest-path routing (the only selector whose cost stays trivially
// linear on the large presets). cfg.Seed and cfg.Lifetimes are
// overridden from the spec.
func RunScaleSpec(spec *ScaleSpec, classes []traffic.Class, alpha float64, sel routing.Selector, cfg ScaleConfig) (*ScaleReport, error) {
	if spec == nil {
		return nil, fmt.Errorf("sim: nil scale spec")
	}
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("sim: alpha %g out of (0,1)", alpha)
	}
	if _, err := schedulerKind(cfg.Scheduler); err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		classes = []traffic.Class{traffic.Voice()}
	}
	if sel == nil {
		sel = routing.SP{}
	}

	m := delay.NewModel(spec.Net)
	var ccs []admission.ClassConfig
	var inputs []delay.ClassInput
	for _, cl := range classes {
		set, rep, err := sel.Select(m, routing.Request{Class: cl, Alpha: alpha})
		if err != nil {
			return nil, fmt.Errorf("sim: routing class %q: %w", cl.Name, err)
		}
		if !rep.Safe {
			return nil, fmt.Errorf("sim: class %q has no safe route set on %s at alpha %g", cl.Name, spec.Topo, alpha)
		}
		ccs = append(ccs, admission.ClassConfig{Class: cl, Alpha: alpha, Routes: set})
		inputs = append(inputs, delay.ClassInput{Class: cl, Alpha: alpha, Routes: set})
	}

	ctrl, err := admission.NewController(spec.Net, ccs, admission.AtomicLedger)
	if err != nil {
		return nil, err
	}

	// Offered pairs: every pair some class can route, in class-then-route
	// order (deterministic; no map iteration).
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	for _, cc := range ccs {
		for r := 0; r < cc.Routes.Len(); r++ {
			rt := cc.Routes.Route(r)
			p := [2]int{rt.Src, rt.Dst}
			if !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("sim: no routable pairs on %s", spec.Topo)
	}

	// The source draws from its own stream so the simulator's class-mix
	// draws cannot perturb arrival times; both derive from the run seed.
	src, err := spec.Arrival.Source(pairs, spec.Horizon(), rand.New(rand.NewSource(spec.Seed+1)))
	if err != nil {
		return nil, err
	}

	cfg.Seed = spec.Seed
	cfg.Lifetimes = spec.Lifetimes
	sim, err := NewScale(ctrl, ccs, src, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := sim.Run()
	if err != nil {
		return nil, err
	}
	bc, err := CheckObservedMax(m, inputs, rep.ObservedMax())
	if err != nil {
		return nil, err
	}
	rep.Bounds = bc
	return rep, nil
}
