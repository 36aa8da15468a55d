// Package delay implements the paper's configuration-time delay analysis
// (Section 5.1): the per-server worst-case queueing delay bound of
// Theorem 3, the worst-case aggregate input behind it (Theorems 1 and
// 2), the fixed-point computation of the delay vector d = Z(d)
// (Equation (14)), the multi-class static-priority extension of
// Theorem 5 / Equation (24), and the verification procedure of Figure 2.
//
// The two-class solve evaluates each server by the closed form of
// Theorem 3. The multi-class and flow-aware solves share one per-server
// step, backlog, which evaluates Equation (3) over a sum of Theorem 1's
// two-line inputs at their breakpoints. The configuration-time solves
// take each input link's cap to be the server's own capacity, so a model
// whose network feeds some server from a faster link is refused by every
// one of them.
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
	// fasterInput is inputCapacityError's verdict on net, taken once.
	fasterInput error

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
		net:         net,
		fasterInput: inputCapacityError(net),
		NMode:       UniformN,
		Tol:         1e-12,
		MaxIter:     4000,
		DivergeCap:  1e4,
	}
}

// inputCapacityError names the first link server fed by an input link
// faster than itself, or returns nil. Theorem 1 caps each input link at
// its own capacity, and the configuration-time analysis takes that cap
// to be the server's C (the paper has one C for every link), so a faster
// input link would let more traffic arrive than the bound admits. The
// reverse of the server's own link shares its capacity, so it never
// counts.
func inputCapacityError(net *topology.Network) error {
	for s := 0; s < net.NumServers(); s++ {
		tail, _, c := net.Server(s)
		for _, u := range net.RouterGraph().Neighbors(tail) {
			in, _ := net.ServerFor(u, tail)
			if net.ServerCapacity(in) > c {
				return fmt.Errorf("delay: link %s (%g b/s) feeds the slower link %s (%g b/s); "+
					"the configuration-time analysis assumes no input link is faster than the server it feeds",
					net.ServerName(in), net.ServerCapacity(in), net.ServerName(s), c)
			}
		}
	}
	return nil
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

// aggregatePiece returns the worst-case aggregate input of one class at
// one server (Theorems 1–2) as one piece of backlog: the
// admission-controlled population α·C/ρ of flows is spread evenly over
// the N input links (n* = αC/(ρN) flows per link), each link is capped
// at its capacity C, and every flow is jittered by up to y seconds of
// upstream delay:
//
//	G(I) = N · min( C·I, n*·(T + ρ·y + ρ·I) ).
func aggregatePiece(alpha, burst, rho float64, n int, c, y float64) piece {
	nStar := alpha * c / (rho * float64(n))
	return piece{cap: float64(n) * c, A: float64(n) * nStar * (burst + rho*y), B: float64(n) * nStar * rho}
}

// piece bounds one input of a server by min(a + cap·I, A + B·I): a link
// of capacity cap carrying traffic of burst A and rate B. Traffic that
// has already waited δ seconds, G(I + δ), is the piece with a = cap·δ
// and A + B·δ.
type piece struct{ a, cap, A, B float64 }

// backlog returns sup_{I>0} Σ_p min(a_p + cap_p·I, A_p + B_p·I) − c·I,
// the busy-period backlog of Equation (3) over one server's inputs. The
// objective is concave and piecewise linear, its kinks are where a
// piece's two lines cross, I_p = (A_p − a_p)/(cap_p − B_p), and its
// final slope is negative on a stable server (Σ B_p < c). So its
// supremum is its I→0⁺ limit Σ min(a_p, A_p) or its value at a positive
// kink. It never allocates.
func backlog(ps []piece, c float64) float64 {
	best := 0.0
	for _, p := range ps {
		best += math.Min(p.a, p.A)
	}
	for _, bp := range ps {
		if bp.A <= bp.a || bp.B >= bp.cap {
			continue // no kink at a positive I
		}
		at := (bp.A - bp.a) / (bp.cap - bp.B)
		v := -c * at
		for _, p := range ps {
			v += math.Min(p.a+p.cap*at, p.A+p.B*at)
		}
		if v > best {
			best = v
		}
	}
	return best
}

// ClassInput describes one real-time class for the solver: its traffic
// class, its utilization assignment α, and the routes its flows take.
type ClassInput struct {
	Class  traffic.Class
	Alpha  float64
	Routes *routes.Set
}

// validate checks one class input of a configuration-time solve,
// refusing every input on a model with a faster input link.
func (m *Model) validate(in ClassInput) error {
	if m.fasterInput != nil {
		return m.fasterInput
	}
	if err := in.Class.Validate(); err != nil {
		return err
	}
	if !(in.Alpha > 0 && in.Alpha < 1) {
		return fmt.Errorf("delay: alpha %g out of (0,1) for class %q", in.Alpha, in.Class.Name)
	}
	if in.Routes == nil || in.Routes.Network() != m.net {
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
// diverged otherwise. It is SolveTwoClassScratch on a fresh scratch.
func (m *Model) SolveTwoClass(in ClassInput) (*Result, error) {
	return m.SolveTwoClassScratch(in, nil, nil, new(SolveScratch))
}

// SolveMultiClass computes per-class delay vectors for one or more
// real-time classes under class-based static priority, per Equation (24):
//
//	d_{i,k} = (1/C)·max_{I>0} ( Σ_{l<i} G_{l,k}(I + d_{i,k})
//	                            + G_{i,k}(I) − C·I ),
//
// where G_{l,k} is the worst-case aggregate of class l at server k
// (aggregatePiece with that class's upstream jitter Y_{l,k}). Inputs must
// be ordered by priority, highest first; each class carries its own route
// set. The returned slice is parallel to the inputs. Converged is false
// on any result if the joint iteration fails to stabilize.
func (m *Model) SolveMultiClass(inputs []ClassInput) ([]*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("delay: no classes")
	}
	alphaSum := 0.0
	for i, in := range inputs {
		if err := m.validate(in); err != nil {
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
	ps := make([]piece, 2*len(inputs)) // the per-server step's pieces
	for iter := 1; iter <= m.MaxIter; iter++ {
		worstChange, worstD := 0.0, 0.0
		for i, in := range inputs {
			res := results[i]
			res.Iterations = iter
			in.Routes.ComputeYExtra(res.D, res.Y, nil, &buf)
			for s := 0; s < nsrv; s++ {
				d, ok := m.serverDelayMultiClass(inputs, results, i, s, ps)
				if !ok {
					return results, nil // an unstable or diverging server
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
			return results, nil
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			for i, in := range inputs {
				results[i].Converged = true
				in.Routes.ComputeYExtra(results[i].D, results[i].Y, nil, &buf)
			}
			return results, nil
		}
	}
	return results, nil
}

// deltaMaxIter caps serverDelayMultiClass's δ iteration, so that
// Model.MaxIter bounds only the joint iteration.
const deltaMaxIter = 4000

// serverDelayMultiClass solves the implicit per-server Equation (24) for
// class index i at server s given the current delay estimates of all
// classes (through their Y vectors). Each class l ≤ i is its
// aggregatePiece; a higher class waits behind class i's own delay δ, so
// it enters shifted by δ. δ is found by monotone iteration. ps holds at
// least 2(i+1) pieces of scratch. ok is false on an unstable server, a
// diverging δ, or a δ iteration cut at deltaMaxIter: the joint solve
// then reports divergence.
func (m *Model) serverDelayMultiClass(inputs []ClassInput, results []*Result, i, s int, ps []piece) (d float64, ok bool) {
	c := m.net.ServerCapacity(s)
	n := m.serverN(s)
	agg, shifted := ps[:i+1], ps[i+1:2*i+2]
	rate := 0.0
	for l := range agg {
		b := inputs[l].Class.Bucket
		agg[l] = aggregatePiece(inputs[l].Alpha, b.Burst, b.Rate, n, c, results[l].Y[s])
		rate += agg[l].B
	}
	if rate >= c {
		return 0, false
	}
	shifted[i] = agg[i]
	delta := 0.0
	for it := 0; it < deltaMaxIter; it++ {
		for l, p := range agg[:i] {
			shifted[l] = piece{a: p.cap * delta, cap: p.cap, A: p.A + p.B*delta, B: p.B}
		}
		nd := backlog(shifted, c) / c
		if i == 0 {
			return nd, true // nothing above the top class: no δ to find
		}
		if nd > m.DivergeCap {
			return 0, false
		}
		if math.Abs(nd-delta) <= m.Tol*math.Max(1, nd) {
			return nd, true
		}
		delta = nd
	}
	return 0, false
}
