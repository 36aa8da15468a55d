// Package telemetry is the observability layer of the admission-control
// system: a dependency-free metrics registry (atomic counters, gauges,
// and fixed-bucket lock-free histograms), a bounded lock-free ring
// buffer of structured admission decision events, and a Sink interface
// that the admission controller, the delay solver and the simulator all
// emit into.
//
// The paper's pitch is that run-time admission is O(path length) with no
// per-flow state in the core; this package exists to make that property
// observable in production without giving it up. Recording takes no
// lock and allocates nothing, in the registry or in the ring (which
// turns its event chunks over, however many goroutines record into
// it), and decisions are recorded by the run:
// a coalesced batch reaches the sink as one DecisionRun call, whose
// shared words — verdict and class counters, the active-flow gauge, the
// latency histogram, the ring's ticket counter — are each written once
// for the whole run, leaving one atomic store per event (its ring
// stamp). A single Decision is a run of one through the same recorder.
// The default Nop sink keeps the zero-telemetry paths exactly as cheap
// as before (emitters skip timestamping entirely when Active reports
// false).
package telemetry

import "time"

// Verdict classifies one admission decision event.
type Verdict uint8

const (
	// Admitted means the utilization test passed on every hop.
	Admitted Verdict = iota
	// RejectedCapacity means some server on the route lacked headroom.
	RejectedCapacity
	// RejectedNoRoute means the configuration has no route for the pair.
	RejectedNoRoute
	// RejectedUnknownClass means the class name is not configured.
	RejectedUnknownClass
	// TornDown means an admitted flow released its reservations.
	TornDown
	// RejectedPolicyRate means the admission policy's token bucket had
	// insufficient tokens for the tenant.
	RejectedPolicyRate
	// RejectedPolicyShed means the SLO gate shed the flow under
	// cluster load.
	RejectedPolicyShed
	// RejectedPolicyReserve means admitting would eat into a capacity
	// reserve held for protected traffic.
	RejectedPolicyReserve

	numVerdicts
)

// String returns the verdict for event output ("admit", "reject",
// "teardown").
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admit"
	case TornDown:
		return "teardown"
	default:
		return "reject"
	}
}

// Rejected reports whether the verdict is any rejection.
func (v Verdict) Rejected() bool {
	return v != Admitted && v != TornDown
}

// Reason returns the machine-readable rejection reason ("capacity",
// "no_route", "unknown_class", "policy_token_bucket", "policy_shed",
// "policy_reserve"), or "" for non-rejections.
func (v Verdict) Reason() string {
	switch v {
	case RejectedCapacity:
		return "capacity"
	case RejectedNoRoute:
		return "no_route"
	case RejectedUnknownClass:
		return "unknown_class"
	case RejectedPolicyRate:
		return "policy_token_bucket"
	case RejectedPolicyShed:
		return "policy_shed"
	case RejectedPolicyReserve:
		return "policy_reserve"
	default:
		return ""
	}
}

// Decision is one run-time admission control decision (admit, reject,
// or teardown), emitted by admission.Controller.
type Decision struct {
	// FlowID is the admitted (or torn down) flow's ID; 0 on rejection.
	FlowID uint64
	// Class is the traffic class name as requested.
	Class string
	// Tenant is the requesting tenant ("" when the deployment does not
	// segment tenants).
	Tenant string
	// Src and Dst are router indexes (-1 when unresolved).
	Src, Dst int
	// Rate is the per-flow reserved rate in bits/second (0 if the class
	// is unknown).
	Rate float64
	// Verdict is the decision outcome.
	Verdict Verdict
	// Bottleneck is the link-server index that failed the utilization
	// test (RejectedCapacity only); -1 otherwise.
	Bottleneck int
	// Latency is the decision wall time.
	Latency time.Duration
	// When is the decision timestamp. Producers that already hold the
	// clock (the controller reads it to compute Latency) pass it so the
	// sink does not call time.Now again per decision; when zero the
	// sink stamps the event itself.
	When time.Time
}

// FixedPoint describes one run of the configuration-time delay
// fixed-point iteration d = Z(d), emitted by delay.Model.
type FixedPoint struct {
	// Class is the traffic class being solved.
	Class string
	// Iterations is the number of outer iterations performed.
	Iterations int
	// Converged reports whether a fixed point was reached.
	Converged bool
	// Elapsed is the solve wall time.
	Elapsed time.Duration
}

// RouteSelect describes one configuration-time route-selection run,
// emitted by the routing selectors (the Portfolio's members each emit
// their own event; the portfolio itself does not, so candidate totals
// are never double-counted).
type RouteSelect struct {
	// Selector names the selector that ran ("heuristic", "sp", ...).
	Selector string
	// PairsRouted and PairsTotal count selection progress.
	PairsRouted, PairsTotal int
	// Candidates is the number of candidate routes the search
	// considered (routing.Report.CandidatesTried); its fixed-point
	// solves are reported as FixedPoint events.
	Candidates int
	// Safe reports whether the selected configuration verified.
	Safe bool
	// Elapsed is the selection wall time.
	Elapsed time.Duration
}

// SimRun carries the aggregate outcome of one simulator run, emitted by
// sim.Sim.
type SimRun struct {
	// Generated, Delivered, Policed, and Late are packet totals across
	// all classes.
	Generated, Delivered, Policed, Late uint64
	// MaxQueueing is the worst end-to-end queueing delay in seconds.
	MaxQueueing float64
	// Duration is the simulated time span in seconds.
	Duration float64
}

// Sink receives telemetry from the system's components. Implementations
// must be safe for concurrent use; RegistrySink records into a Registry
// and an event Ring, and Nop discards everything.
type Sink interface {
	Decision(Decision)
	// DecisionRun reports the decisions of one coalesced batch, in
	// order. They share one When and one Latency (the batch's), and the
	// slice is the caller's to reuse once the call returns.
	DecisionRun([]Decision)
	FixedPoint(FixedPoint)
	RouteSelect(RouteSelect)
	SimRun(SimRun)
}

// Nop is the default sink: it discards all telemetry. Emitters that
// check Active skip even the timestamping work when it is installed.
type Nop struct{}

// Decision implements Sink.
func (Nop) Decision(Decision) {}

// DecisionRun implements Sink.
func (Nop) DecisionRun([]Decision) {}

// FixedPoint implements Sink.
func (Nop) FixedPoint(FixedPoint) {}

// RouteSelect implements Sink.
func (Nop) RouteSelect(RouteSelect) {}

// SimRun implements Sink.
func (Nop) SimRun(SimRun) {}

// Active reports whether s records anything — false for nil and Nop.
// Hot paths use it to skip time.Now calls and event construction when
// telemetry is off.
func Active(s Sink) bool {
	if s == nil {
		return false
	}
	_, nop := s.(Nop)
	return !nop
}
