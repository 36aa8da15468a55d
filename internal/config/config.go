// Package config implements the paper's configuration module (Section 5),
// the first of the three resource-management components. It offers the
// three configuration procedures:
//
//  1. verification of a safe utilization assignment (routes and α given —
//     Figure 2);
//  2. safe route selection for a given utilization (α given, routes
//     chosen by a routing.Selector);
//  3. safe route selection maximizing utilization (binary search on α
//     between the Theorem 4 bounds, Section 5.3).
//
// Configuration runs at network setup or service-level-agreement changes;
// its outputs (the per-class utilization assignment and route table) feed
// the run-time admission controller in internal/admission.
package config

import (
	"fmt"

	"ubac/internal/bounds"
	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// Config drives configuration over one delay model. The zero value is
// not usable; construct with New.
type Config struct {
	model *delay.Model
	// Selector chooses routes in procedures 2 and 3 (default
	// routing.Heuristic{}).
	Selector routing.Selector
	// Granularity is the α resolution of the binary searches (default
	// defaultGranularity; zero or negative means the default).
	Granularity float64
}

// defaultGranularity is ~¼ percentage point of α.
const defaultGranularity = 0.0025

// New returns a Config with the default selector (the heuristic
// portfolio, which is never worse than shortest-path routing) and
// granularity.
func New(m *delay.Model) *Config {
	return &Config{model: m, Selector: routing.Portfolio{}, Granularity: defaultGranularity}
}

// bisect halves [lo, hi] until it is no wider than the granularity,
// probing each midpoint: a safe probe raises lo, an unsafe one lowers
// hi. safe records the probe and keeps whatever a safe result carries.
func (c *Config) bisect(lo, hi float64, safe func(float64) (bool, error)) error {
	gran := c.Granularity
	if gran <= 0 {
		gran = defaultGranularity
	}
	for hi-lo > gran {
		mid := (lo + hi) / 2
		ok, err := safe(mid)
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return nil
}

// Model returns the underlying delay model.
func (c *Config) Model() *delay.Model { return c.model }

// VerifyAssignment is configuration procedure 1: both routes and
// utilization are given; check that every class meets its deadline on
// every route (Figure 2).
func (c *Config) VerifyAssignment(inputs []delay.ClassInput) (*delay.VerifyResult, error) {
	return c.model.Verify(inputs)
}

// SelectRoutes is configuration procedure 2: the utilization assignment
// is given and routes are chosen by the configured selector.
func (c *Config) SelectRoutes(req routing.Request) (*routes.Set, *routing.Report, error) {
	return c.Selector.Select(c.model, req)
}

// Probe records one binary-search trial.
type Probe struct {
	Alpha float64
	Safe  bool
}

// MaxUtilResult is the outcome of configuration procedure 3.
type MaxUtilResult struct {
	// Alpha is the maximum utilization at which the selector produced a
	// safe route set (0 if none was found, which violates Theorem 4 and
	// indicates a selector bug).
	Alpha float64
	// Lower and Upper are the Theorem 4 bounds that initialized the
	// search space.
	Lower, Upper float64
	// Routes is the safe route set found at Alpha.
	Routes *routes.Set
	// Report is the selector's report at Alpha.
	Report *routing.Report
	// Probes lists every α the search tried, in order.
	Probes []Probe
}

// MaxUtilization is configuration procedure 3 (Section 5.3): binary
// search on the utilization assignment between the Theorem 4 bounds,
// invoking the route selector at each probe, until the search interval
// shrinks below the configured granularity. Pairs may be nil for all
// ordered edge-router pairs.
func (c *Config) MaxUtilization(class traffic.Class, pairs [][2]int) (*MaxUtilResult, error) {
	if err := class.Validate(); err != nil {
		return nil, err
	}
	if !class.RealTime() {
		return nil, fmt.Errorf("config: class %q has no deadline to maximize against", class.Name)
	}
	net := c.model.Network()
	p := bounds.Params{
		N:        net.MaxDegree(),
		L:        net.Diameter(),
		Burst:    class.Bucket.Burst,
		Rate:     class.Bucket.Rate,
		Deadline: class.Deadline,
	}
	lower, upper, err := bounds.Bounds(p)
	if err != nil {
		return nil, err
	}
	res := &MaxUtilResult{Lower: lower, Upper: upper}
	try := func(alpha float64) (bool, error) {
		set, rep, err := c.Selector.Select(c.model, routing.Request{
			Class: class, Alpha: alpha, Pairs: pairs,
		})
		if err != nil {
			return false, err
		}
		res.Probes = append(res.Probes, Probe{Alpha: alpha, Safe: rep.Safe})
		if rep.Safe {
			res.Alpha, res.Routes, res.Report = alpha, set, rep
		}
		return rep.Safe, nil
	}
	// The lower bound is safe by Theorem 4; anchor the search there so a
	// result always exists.
	if _, err := try(lower); err != nil {
		return nil, err
	}
	if err := c.bisect(lower, upper, try); err != nil {
		return nil, err
	}
	return res, nil
}

// ClassSpec describes one class for multi-class configuration: the class,
// its utilization assignment, and the pairs it must route (nil for all
// edge pairs).
type ClassSpec struct {
	Class traffic.Class
	Alpha float64
	Pairs [][2]int
}

// MultiResult is the outcome of multi-class route selection.
type MultiResult struct {
	// Inputs pairs each class with its selected route set, in priority
	// order, ready for delay.Model.SolveMultiClass or the admission
	// controller.
	Inputs []delay.ClassInput
	// Reports are the per-class selector reports.
	Reports []*routing.Report
	// Verify is the joint multi-class verification of the final
	// configuration (Theorem 5 solver).
	Verify *delay.VerifyResult
}

// SelectMultiClass is the Section 5.4 variation of procedure 2: routes
// are selected class by class in priority order (each selection uses the
// two-class analysis for its own class, mirroring the paper's per-class
// route choice), then the complete configuration is verified jointly
// with the multi-class Theorem 5 analysis. A configuration is safe only
// if the joint verification passes.
func (c *Config) SelectMultiClass(specs []ClassSpec) (*MultiResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("config: no classes")
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Class.Priority >= specs[i].Class.Priority {
			return nil, fmt.Errorf("config: classes must be ordered by priority (highest first)")
		}
	}
	out := &MultiResult{}
	for _, spec := range specs {
		set, rep, err := c.Selector.Select(c.model, routing.Request{
			Class: spec.Class, Alpha: spec.Alpha, Pairs: spec.Pairs,
		})
		if err != nil {
			return nil, err
		}
		out.Reports = append(out.Reports, rep)
		out.Inputs = append(out.Inputs, delay.ClassInput{
			Class: spec.Class, Alpha: spec.Alpha, Routes: set,
		})
	}
	verify, err := c.model.Verify(out.Inputs)
	if err != nil {
		return nil, err
	}
	out.Verify = verify
	return out, nil
}

// MaxScaleResult is the outcome of the multi-class utilization trade-off
// search.
type MaxScaleResult struct {
	// Scale is the largest factor s such that the assignment
	// (s·α_1, ..., s·α_m) verified safely (0 if none).
	Scale float64
	// Result is the multi-class selection at Scale.
	Result *MultiResult
	// Probes lists the trials.
	Probes []Probe
}

// MaxUtilizationScale searches for the largest uniform scale factor on a
// multi-class utilization assignment that remains jointly safe — the
// "trade-off utilization assignments of classes against each other"
// procedure sketched at the end of Section 5.4. The specs' Alpha fields
// give the relative shares; the search scales them together, capped so
// the total stays below 1.
func (c *Config) MaxUtilizationScale(specs []ClassSpec) (*MaxScaleResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("config: no classes")
	}
	total := 0.0
	for _, s := range specs {
		if !(s.Alpha > 0) {
			return nil, fmt.Errorf("config: class %q needs a positive share", s.Class.Name)
		}
		total += s.Alpha
	}
	out := &MaxScaleResult{}
	try := func(s float64) (bool, error) {
		scaled := make([]ClassSpec, len(specs))
		copy(scaled, specs)
		for i := range scaled {
			scaled[i].Alpha = specs[i].Alpha * s
		}
		mr, err := c.SelectMultiClass(scaled)
		if err != nil {
			return false, err
		}
		ok := mr.Verify.Safe
		for _, rep := range mr.Reports {
			ok = ok && rep.Safe
		}
		out.Probes = append(out.Probes, Probe{Alpha: s, Safe: ok})
		if ok {
			out.Scale, out.Result = s, mr
		}
		return ok, nil
	}
	if err := c.bisect(0, 0.999/total, try); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxUtilizationFixedRoutes binary-searches the largest utilization at
// which the given, already-selected route set still verifies safely —
// the operator's "how much headroom does my current routing have"
// query. Unlike MaxUtilization it never re-routes, so the result is also
// meaningful for route sets produced outside this library. Feasibility
// is monotone in α for fixed routes, making plain bisection exact up to
// the configured granularity.
func (c *Config) MaxUtilizationFixedRoutes(class traffic.Class, set *routes.Set) (*MaxUtilResult, error) {
	if err := class.Validate(); err != nil {
		return nil, err
	}
	if !class.RealTime() {
		return nil, fmt.Errorf("config: class %q has no deadline", class.Name)
	}
	if set == nil || set.Network() != c.model.Network() {
		return nil, fmt.Errorf("config: route set missing or over a different network")
	}
	res := &MaxUtilResult{Lower: 0, Upper: 1}
	err := c.bisect(0, 1, func(alpha float64) (bool, error) {
		v, err := c.model.Verify([]delay.ClassInput{{Class: class, Alpha: alpha, Routes: set}})
		if err != nil {
			return false, err
		}
		res.Probes = append(res.Probes, Probe{Alpha: alpha, Safe: v.Safe})
		if v.Safe {
			res.Alpha, res.Routes = alpha, set
		}
		return v.Safe, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FailoverResult reports the impact of one link failure on a verified
// single-class configuration.
type FailoverResult struct {
	// BrokenRoutes counts routes of the original set that crossed the
	// failed link (in either direction).
	BrokenRoutes int
	// Network is the surviving topology.
	Network *topology.Network
	// Routes is the reconfigured route set over the surviving topology.
	Routes *routes.Set
	// Report is the selector's report for the reconfiguration; Safe
	// tells whether the same utilization is still achievable.
	Report *routing.Report
}

// Failover answers the operator question "can the network still carry
// class at utilization alpha if the a–b link dies?": it removes the
// duplex link, re-runs safe route selection on the survivor topology at
// the same α, and reports how many existing routes the failure broke.
// current may be nil when the existing route set is unknown.
func (c *Config) Failover(class traffic.Class, alpha float64, current *routes.Set, a, b int) (*FailoverResult, error) {
	net := c.model.Network()
	survivor, err := net.WithoutLink(a, b)
	if err != nil {
		return nil, err
	}
	broken := 0
	if current != nil {
		sa, _ := net.ServerFor(a, b)
		sb, _ := net.ServerFor(b, a)
		for i := 0; i < current.Len(); i++ {
			for _, s := range current.Route(i).Servers {
				if s == sa || s == sb {
					broken++
					break
				}
			}
		}
	}
	m2 := delay.NewModel(survivor)
	m2.NMode = c.model.NMode
	m2.Tol = c.model.Tol
	m2.MaxIter = c.model.MaxIter
	m2.DivergeCap = c.model.DivergeCap
	m2.FixedPerHop = c.model.FixedPerHop
	set, rep, err := c.Selector.Select(m2, routing.Request{Class: class, Alpha: alpha})
	if err != nil {
		return nil, err
	}
	return &FailoverResult{BrokenRoutes: broken, Network: survivor, Routes: set, Report: rep}, nil
}
