// Package core is the top-level façade of the library: it ties the
// network model, traffic classes, configuration-time analysis
// (verification, route selection, utilization maximization), run-time
// admission control, and the validation simulator together behind one
// documented API.
//
// Typical use mirrors the paper's life cycle:
//
//	net := topology.MCI()
//	classes, _ := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
//	sys, _ := core.NewSystem(net, classes)
//
//	// Configuration time: find the maximum safe utilization and routes.
//	maxRes, _ := sys.MaxUtilization("voice")
//	dep, _ := sys.Configure(map[string]float64{"voice": maxRes.Alpha})
//
//	// Run time: admission control is a utilization test per server.
//	ctrl, _ := dep.Controller(admission.AtomicLedger)
//	id, err := ctrl.Admit("voice", src, dst)
package core

import (
	"fmt"

	"ubac/internal/admission"
	"ubac/internal/bounds"
	"ubac/internal/config"
	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/sim"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// System binds one network to one set of traffic classes.
type System struct {
	net     *topology.Network
	classes *traffic.ClassSet
	model   *delay.Model
	cfg     *config.Config
}

// NewSystem validates the inputs and returns a System using default
// solver and selector settings (tunable through Model and Config).
func NewSystem(net *topology.Network, classes *traffic.ClassSet) (*System, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if classes == nil || classes.Len() == 0 {
		return nil, fmt.Errorf("core: no classes")
	}
	m := delay.NewModel(net)
	return &System{net: net, classes: classes, model: m, cfg: config.New(m)}, nil
}

// Network returns the system's network.
func (s *System) Network() *topology.Network { return s.net }

// Classes returns the system's class set.
func (s *System) Classes() *traffic.ClassSet { return s.classes }

// Model exposes the delay model for tuning (tolerance, N mode, ...).
func (s *System) Model() *delay.Model { return s.model }

// Config exposes the configuration module for tuning (selector,
// granularity).
func (s *System) Config() *config.Config { return s.cfg }

// Bounds returns the Theorem 4 lower and upper bounds on the maximum
// utilization of the named real-time class for this network.
func (s *System) Bounds(class string) (lower, upper float64, err error) {
	c, ok := s.classes.ByName(class)
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown class %q", class)
	}
	if !c.RealTime() {
		return 0, 0, fmt.Errorf("core: class %q has no deadline", class)
	}
	return bounds.Bounds(bounds.Params{
		N:        s.net.MaxDegree(),
		L:        s.net.Diameter(),
		Burst:    c.Bucket.Burst,
		Rate:     c.Bucket.Rate,
		Deadline: c.Deadline,
	})
}

// MaxUtilization runs configuration procedure 3 for the named class:
// binary search on α between the Theorem 4 bounds with safe route
// selection at every probe.
func (s *System) MaxUtilization(class string) (*config.MaxUtilResult, error) {
	c, ok := s.classes.ByName(class)
	if !ok {
		return nil, fmt.Errorf("core: unknown class %q", class)
	}
	return s.cfg.MaxUtilization(c, nil)
}

// Deployment is a verified configuration: per-class utilization
// assignments with their selected routes, ready to deploy to the
// run-time admission controller.
type Deployment struct {
	sys    *System
	inputs []delay.ClassInput
	// Verify is the joint verification result of the configuration.
	Verify *delay.VerifyResult
	// Reports are the per-class route selection reports.
	Reports []*routing.Report
}

// Configure runs safe route selection for every real-time class with the
// given utilization assignment (class name → α) and verifies the joint
// configuration. It returns the deployment even when unsafe so callers
// can inspect Verify; deploying an unsafe configuration is rejected.
func (s *System) Configure(alphas map[string]float64) (*Deployment, error) {
	rt := s.classes.RealTimeClasses()
	if len(rt) == 0 {
		return nil, fmt.Errorf("core: no real-time classes to configure")
	}
	var specs []config.ClassSpec
	for _, c := range rt {
		a, ok := alphas[c.Name]
		if !ok {
			return nil, fmt.Errorf("core: no utilization assignment for class %q", c.Name)
		}
		specs = append(specs, config.ClassSpec{Class: c, Alpha: a})
	}
	mr, err := s.cfg.SelectMultiClass(specs)
	if err != nil {
		return nil, err
	}
	return &Deployment{sys: s, inputs: mr.Inputs, Verify: mr.Verify, Reports: mr.Reports}, nil
}

// VerifyAssignment runs configuration procedure 1 on externally supplied
// inputs (routes and α given).
func (s *System) VerifyAssignment(inputs []delay.ClassInput) (*delay.VerifyResult, error) {
	return s.cfg.VerifyAssignment(inputs)
}

// Safe reports whether every class's route selection completed and the
// joint configuration passed verification. A failed selection leaves a
// partial route set that may verify trivially, so both checks matter.
func (d *Deployment) Safe() bool {
	if d.Verify == nil || !d.Verify.Safe {
		return false
	}
	for _, rep := range d.Reports {
		if rep == nil || !rep.Safe {
			return false
		}
	}
	return true
}

// Inputs returns the per-class (class, α, routes) triples in priority
// order.
func (d *Deployment) Inputs() []delay.ClassInput {
	return append([]delay.ClassInput(nil), d.inputs...)
}

// Alpha returns the configured utilization of the named class.
func (d *Deployment) Alpha(class string) (float64, bool) {
	for _, in := range d.inputs {
		if in.Class.Name == class {
			return in.Alpha, true
		}
	}
	return 0, false
}

// Controller deploys the configuration to a run-time admission
// controller. Unsafe deployments are rejected: admitting flows against
// an unverified assignment voids the delay guarantees. The verified
// per-class delay vectors are installed on the controller, which sums
// each route's end-to-end bound from them once for RouteDelay queries.
func (d *Deployment) Controller(kind admission.LedgerKind) (*admission.Controller, error) {
	if !d.Safe() {
		return nil, fmt.Errorf("core: refusing to deploy an unverified configuration")
	}
	var ccs []admission.ClassConfig
	for _, in := range d.inputs {
		ccs = append(ccs, admission.ClassConfig{Class: in.Class, Alpha: in.Alpha, Routes: in.Routes})
	}
	ctrl, err := admission.NewController(d.sys.net, ccs, kind)
	if err != nil {
		return nil, err
	}
	if d.Verify != nil {
		for i, in := range d.inputs {
			if i < len(d.Verify.Results) && d.Verify.Results[i] != nil && d.Verify.Results[i].Converged {
				if err := ctrl.SetDelayBounds(in.Class.Name, d.Verify.Results[i].D); err != nil {
					return nil, err
				}
			}
		}
	}
	return ctrl, nil
}

// Simulator builds a discrete-event simulation of the deployment:
// flowsPerRoute leaky-bucket-worst-case flows of each class on every
// configured route, plus (optionally) greedy best-effort cross traffic on
// the same routes when the class set has a best-effort class. The
// returned simulator is ready to Run.
func (d *Deployment) Simulator(cfg sim.Config, flowsPerRoute int, pattern sim.Pattern) (*sim.Sim, error) {
	if flowsPerRoute < 1 {
		return nil, fmt.Errorf("core: flowsPerRoute must be >= 1")
	}
	sm, err := sim.New(d.sys.net, cfg)
	if err != nil {
		return nil, err
	}
	for prio, in := range d.inputs {
		for ri := 0; ri < in.Routes.Len(); ri++ {
			rt := in.Routes.Route(ri)
			for f := 0; f < flowsPerRoute; f++ {
				_, err := sm.AddFlow(sim.FlowSpec{
					Class:    prio,
					Route:    rt.Servers,
					Size:     in.Class.Bucket.Burst,
					Rate:     in.Class.Bucket.Rate,
					Burst:    in.Class.Bucket.Burst,
					Pattern:  pattern,
					Deadline: in.Class.Deadline,
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return sm, nil
}

// AnalyticWorstRoute returns the largest verified end-to-end delay bound
// of the named class across its routes.
func (d *Deployment) AnalyticWorstRoute(class string) (float64, error) {
	if d.Verify == nil {
		return 0, fmt.Errorf("core: deployment not verified")
	}
	worst := 0.0
	found := false
	for _, rr := range d.Verify.Routes {
		if rr.Class != class {
			continue
		}
		found = true
		if rr.Bound > worst {
			worst = rr.Bound
		}
	}
	if !found {
		return 0, fmt.Errorf("core: class %q has no verified routes", class)
	}
	return worst, nil
}
