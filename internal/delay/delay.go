// Package delay implements the paper's configuration-time delay analysis
// (Section 5.1): the per-server worst-case queueing delay bound of
// Theorem 3, the worst-case aggregate arrival curves behind it
// (Theorems 1 and 2), the fixed-point computation of the delay vector
// d = Z(d) (Equation (14)), the multi-class static-priority extension of
// Theorem 5 / Equation (24), and the verification procedure of Figure 2.
//
// Two interchangeable evaluators are provided and tested against each
// other: the closed form of Theorem 3 (fast; used inside route-selection
// loops) and a general numeric busy-period evaluator over piecewise-
// linear curves (needed for the multi-class case and for heterogeneous
// capacities).
package delay

import (
	"fmt"
	"math"
	"time"

	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// NMode selects how N, the per-router input-link count of the analysis,
// is chosen for each link server.
type NMode int

const (
	// UniformN uses the network-wide maximum router degree for every
	// server — the paper's model ("we assume all routers to have N input
	// links"); conservative for low-degree routers.
	UniformN NMode = iota
	// PerServerFanIn uses each server's own upstream router degree,
	// a tighter per-server generalization.
	PerServerFanIn
)

// Model carries the solver configuration for one network.
// Construct with NewModel; the zero value is not usable.
type Model struct {
	net *topology.Network

	// NMode selects the input-link count model (default UniformN).
	NMode NMode
	// Tol is the relative convergence tolerance of the fixed-point
	// iterations (default 1e-12).
	Tol float64
	// MaxIter caps the outer fixed-point iterations (default 4000).
	MaxIter int
	// DivergeCap declares divergence once any per-server delay bound
	// exceeds this many seconds (default 1e4).
	DivergeCap float64
	// FixedPerHop is a constant per-hop delay in seconds (propagation,
	// switching, packetization) charged against deadlines on top of the
	// queueing bounds — the paper folds these constants into the
	// deadline requirements (Section 3). Default 0.
	FixedPerHop float64
	// Sink receives one telemetry.FixedPoint event per solver run
	// (iteration count, convergence, wall time). nil or telemetry.Nop
	// (the default) disables the timestamping entirely; solves inside
	// route-selection loops then cost exactly what they did before.
	Sink telemetry.Sink
}

// NewModel returns a Model with default solver settings.
func NewModel(net *topology.Network) *Model {
	return &Model{
		net:        net,
		NMode:      UniformN,
		Tol:        1e-12,
		MaxIter:    4000,
		DivergeCap: 1e4,
	}
}

// Network returns the model's network.
func (m *Model) Network() *topology.Network { return m.net }

// serverN returns N for link server s under the configured mode.
func (m *Model) serverN(s int) int {
	switch m.NMode {
	case PerServerFanIn:
		tail, _, _ := m.net.Server(s)
		n := m.net.Degree(tail)
		if n < 2 {
			n = 2
		}
		return n
	default:
		n := m.net.MaxDegree()
		if n < 2 {
			n = 2
		}
		return n
	}
}

// Gain returns g = α(N−1) / (ρ(N−α)), the factor of the Theorem 3 closed
// form d = g·(T + ρY). It is the per-server "delay gain": the recursion
// d_k = g(T + ρ·Y_k) converges along a path of length L only when the
// accumulated gain stays below 1.
func Gain(alpha, rho float64, n int) float64 {
	return alpha * float64(n-1) / (rho * (float64(n) - alpha))
}

// ServerBound returns the Theorem 3 closed-form worst-case queueing delay
// of a server with utilization assignment alpha, per-flow envelope
// (burst, rho), N input links, and worst upstream accumulated delay y:
//
//	d = (T + ρY)·α/ρ + (α−1)·α(T + ρY)/(ρ(N−α)) = g·(T + ρY).
func ServerBound(alpha, burst, rho float64, n int, y float64) float64 {
	return Gain(alpha, rho, n) * (burst + rho*y)
}

// AggregateCurve returns the worst-case aggregate arrival curve of one
// class at one server (Theorems 1–2): the admission-controlled population
// α·C/ρ of flows is spread evenly over the N input links
// (n* = αC/(ρN) flows per link), each link is capped at its capacity C,
// and every flow is jittered by up to y seconds of upstream delay:
//
//	G(I) = N · min( C·I, n*·(T + ρ·y + ρ·I) ).
func AggregateCurve(alpha, burst, rho float64, n int, c, y float64) traffic.Curve {
	nStar := alpha * c / (rho * float64(n))
	return traffic.MustCurve(
		traffic.Line{A: 0, B: float64(n) * c},
		traffic.Line{A: float64(n) * nStar * (burst + rho*y), B: float64(n) * nStar * rho},
	)
}

// ServerBoundNumeric computes the same bound as ServerBound through the
// general busy-period evaluator d = (1/C)·sup_I (G(I) − C·I)
// (Equation (3) with the worst-case aggregate of Theorems 1–2). The two
// agree to floating-point accuracy; this form generalizes to multiple
// classes and heterogeneous capacities.
func ServerBoundNumeric(alpha, burst, rho float64, n int, c, y float64) (float64, error) {
	g := AggregateCurve(alpha, burst, rho, n, c, y)
	backlog, _, ok := g.MaxBacklog(c)
	if !ok {
		return 0, fmt.Errorf("delay: server unstable at alpha=%g", alpha)
	}
	return backlog / c, nil
}

// ClassInput describes one real-time class for the solver: its traffic
// class, its utilization assignment α, and the routes its flows take.
type ClassInput struct {
	Class  traffic.Class
	Alpha  float64
	Routes *routes.Set
}

func (in ClassInput) validate(net *topology.Network) error {
	if err := in.Class.Validate(); err != nil {
		return err
	}
	if !(in.Alpha > 0 && in.Alpha < 1) {
		return fmt.Errorf("delay: alpha %g out of (0,1) for class %q", in.Alpha, in.Class.Name)
	}
	if in.Routes == nil || in.Routes.Network() != net {
		return fmt.Errorf("delay: class %q routes missing or over a different network", in.Class.Name)
	}
	return nil
}

// Result is the outcome of a fixed-point delay computation for one class.
type Result struct {
	// D[k] is the worst-case queueing delay bound of link server k in
	// seconds. Meaningful only if Converged.
	D []float64
	// Y[k] is the worst accumulated upstream delay entering server k.
	Y []float64
	// Converged reports whether the iteration reached a fixed point; if
	// false the utilization assignment is unsafe (delays grow without
	// bound).
	Converged bool
	// Iterations is the number of outer iterations performed.
	Iterations int
}

// MaxServerDelay returns the largest per-server bound.
func (r *Result) MaxServerDelay() float64 {
	worst := 0.0
	for _, d := range r.D {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// SolveTwoClass computes the delay vector for the paper's two-class
// system (one real-time class over best-effort) using the Theorem 3
// closed form inside the Equation (14) fixed-point iteration. The
// iteration starts from d = 0 and is monotone nondecreasing, so it
// converges to the least fixed point whenever one exists and is reported
// diverged otherwise.
func (m *Model) SolveTwoClass(in ClassInput) (*Result, error) {
	return m.SolveTwoClassFrom(in, nil)
}

// SolveTwoClassFrom is SolveTwoClass warm-started from the initial delay
// vector d0 (nil means all zeros). The iteration is monotone, so any d0
// below the least fixed point — e.g. the converged solution of a subset
// of the routes, as maintained by the incremental route-selection loop —
// yields the same answer in fewer iterations. A d0 above the fixed point
// is invalid and gives meaningless results.
func (m *Model) SolveTwoClassFrom(in ClassInput, d0 []float64) (*Result, error) {
	return m.SolveTwoClassExtra(in, nil, d0)
}

// SolveTwoClassExtra is SolveTwoClassFrom with one phantom route treated
// as if it were part of in.Routes — the allocation-free way to evaluate
// a route candidate without mutating the set. It never modifies
// in.Routes, so concurrent calls over the same set (with different
// phantom routes) are safe.
func (m *Model) SolveTwoClassExtra(in ClassInput, extra *routes.Route, d0 []float64) (*Result, error) {
	if err := in.validate(m.net); err != nil {
		return nil, err
	}
	nsrv := m.net.NumServers()
	if d0 != nil && len(d0) != nsrv {
		return nil, fmt.Errorf("delay: warm start length %d, want %d", len(d0), nsrv)
	}
	gain := make([]float64, nsrv)
	for s := 0; s < nsrv; s++ {
		gain[s] = Gain(in.Alpha, in.Class.Bucket.Rate, m.serverN(s))
	}
	res := &Result{D: make([]float64, nsrv), Y: make([]float64, nsrv)}
	if telemetry.Active(m.Sink) {
		start := time.Now()
		defer func() {
			m.Sink.FixedPoint(telemetry.FixedPoint{
				Class:      in.Class.Name,
				Iterations: res.Iterations,
				Converged:  res.Converged,
				Elapsed:    time.Since(start),
			})
		}()
	}
	if d0 != nil {
		copy(res.D, d0)
	}
	burst, rho := in.Class.Bucket.Burst, in.Class.Bucket.Rate
	m.iterate(in, extra, res, gain, burst, rho)
	return res, nil
}

// iterate runs the Equation (14) sweep d ← Z(d) until convergence,
// divergence, or the iteration cap.
func (m *Model) iterate(in ClassInput, extra *routes.Route, res *Result, gain []float64, burst, rho float64) {
	nsrv := len(res.D)
	next := make([]float64, nsrv)
	var buf []float64
	for iter := 1; iter <= m.MaxIter; iter++ {
		res.Iterations = iter
		in.Routes.ComputeYExtra(res.D, res.Y, extra, &buf)
		worstChange := 0.0
		worstD := 0.0
		for s := 0; s < nsrv; s++ {
			next[s] = gain[s] * (burst + rho*res.Y[s])
			if ch := math.Abs(next[s] - res.D[s]); ch > worstChange {
				worstChange = ch
			}
			if next[s] > worstD {
				worstD = next[s]
			}
		}
		copy(res.D, next)
		if worstD > m.DivergeCap {
			res.Converged = false
			return
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			res.Converged = true
			in.Routes.ComputeYExtra(res.D, res.Y, extra, &buf)
			return
		}
	}
	res.Converged = false
}

// SolveMultiClass computes per-class delay vectors for one or more
// real-time classes under class-based static priority, per Equation (24):
//
//	d_{i,k} = (1/C)·max_{I>0} ( Σ_{l<i} G_{l,k}(I + d_{i,k})
//	                            + G_{i,k}(I) − C·I ),
//
// where G_{l,k} is the worst-case aggregate of class l at server k
// (AggregateCurve with that class's upstream jitter Y_{l,k}). Inputs must
// be ordered by priority, highest first; each class carries its own route
// set. The returned slice is parallel to the inputs. Converged is false
// on any result if the joint iteration fails to stabilize.
func (m *Model) SolveMultiClass(inputs []ClassInput) ([]*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("delay: no classes")
	}
	alphaSum := 0.0
	for i, in := range inputs {
		if err := in.validate(m.net); err != nil {
			return nil, err
		}
		if i > 0 && inputs[i-1].Class.Priority >= in.Class.Priority {
			return nil, fmt.Errorf("delay: classes must be ordered by priority (highest first)")
		}
		alphaSum += in.Alpha
	}
	if alphaSum >= 1 {
		return nil, fmt.Errorf("delay: total real-time utilization %g >= 1", alphaSum)
	}
	nsrv := m.net.NumServers()
	results := make([]*Result, len(inputs))
	for i := range results {
		results[i] = &Result{D: make([]float64, nsrv), Y: make([]float64, nsrv)}
	}
	if telemetry.Active(m.Sink) {
		start := time.Now()
		defer func() {
			for i, in := range inputs {
				m.Sink.FixedPoint(telemetry.FixedPoint{
					Class:      in.Class.Name,
					Iterations: results[i].Iterations,
					Converged:  results[i].Converged,
					Elapsed:    time.Since(start),
				})
			}
		}()
	}
	next := make([]float64, nsrv)
	var buf []float64
	for iter := 1; iter <= m.MaxIter; iter++ {
		worstChange, worstD := 0.0, 0.0
		for i, in := range inputs {
			res := results[i]
			res.Iterations = iter
			in.Routes.ComputeYExtra(res.D, res.Y, nil, &buf)
			for s := 0; s < nsrv; s++ {
				d, err := m.serverDelayMultiClass(inputs, results, i, s)
				if err != nil {
					// Unstable server: treat as divergence.
					for _, r := range results {
						r.Converged = false
					}
					return results, nil
				}
				next[s] = d
				if ch := math.Abs(d - res.D[s]); ch > worstChange {
					worstChange = ch
				}
				if d > worstD {
					worstD = d
				}
			}
			copy(res.D, next)
		}
		if worstD > m.DivergeCap {
			for _, r := range results {
				r.Converged = false
			}
			return results, nil
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			for i, in := range inputs {
				results[i].Converged = true
				in.Routes.ComputeY(results[i].D, results[i].Y)
			}
			return results, nil
		}
	}
	for _, r := range results {
		r.Converged = false
	}
	return results, nil
}

// serverDelayMultiClass solves the implicit per-server Equation (24) for
// class index i at server s given the current delay estimates of all
// classes (through their Y vectors).
func (m *Model) serverDelayMultiClass(inputs []ClassInput, results []*Result, i, s int) (float64, error) {
	c := m.net.ServerCapacity(s)
	n := m.serverN(s)
	own := AggregateCurve(inputs[i].Alpha, inputs[i].Class.Bucket.Burst,
		inputs[i].Class.Bucket.Rate, n, c, results[i].Y[s])
	if i == 0 {
		backlog, _, ok := own.MaxBacklog(c)
		if !ok {
			return 0, fmt.Errorf("delay: unstable top class at server %d", s)
		}
		return backlog / c, nil
	}
	higher := make([]traffic.Curve, i)
	for l := 0; l < i; l++ {
		higher[l] = AggregateCurve(inputs[l].Alpha, inputs[l].Class.Bucket.Burst,
			inputs[l].Class.Bucket.Rate, n, c, results[l].Y[s])
	}
	// Monotone iteration on the implicit delay δ.
	delta := 0.0
	for it := 0; it < m.MaxIter; it++ {
		curves := make([]traffic.Curve, 0, i+1)
		for _, h := range higher {
			curves = append(curves, h.Shift(delta))
		}
		curves = append(curves, own)
		total := traffic.Sum(curves...)
		backlog, _, ok := total.MaxBacklog(c)
		if !ok {
			return 0, fmt.Errorf("delay: unstable class %d at server %d", i, s)
		}
		nd := backlog / c
		if nd > m.DivergeCap {
			return 0, fmt.Errorf("delay: diverging class %d at server %d", i, s)
		}
		if math.Abs(nd-delta) <= m.Tol*math.Max(1, nd) {
			return nd, nil
		}
		delta = nd
	}
	return 0, fmt.Errorf("delay: inner iteration did not converge at server %d", s)
}
