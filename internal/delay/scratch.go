package delay

import (
	"fmt"
	"math"
	"time"

	"ubac/internal/routes"
	"ubac/internal/telemetry"
)

// SolveScratch holds the reusable state of repeated two-class solves:
// the Result vectors, the sweep buffers, the per-server gain vector
// (cached across calls with the same model/class parameters), and the
// active-domain bookkeeping. A route selection solves every candidate
// through one scratch, so steady-state candidate evaluation performs
// zero heap allocations.
//
// A scratch is not safe for concurrent use; the Result returned by
// SolveTwoClassScratch aliases its buffers and is valid only until the
// next call with the same scratch.
type SolveScratch struct {
	res  Result
	next []float64
	pre  []float64 // the Y sweep's per-prefix sums (routes.Set.AccumulateY)

	gain      []float64
	gainModel *Model
	gainAlpha float64
	gainRho   float64
	gainNMode NMode

	active []int
	inDom  []bool
}

func (sc *SolveScratch) ensure(nsrv int) {
	if len(sc.next) != nsrv {
		sc.res.D = make([]float64, nsrv)
		sc.res.Y = make([]float64, nsrv)
		sc.next = make([]float64, nsrv)
		sc.inDom = make([]bool, nsrv)
		sc.active = make([]int, 0, nsrv)
		sc.gain = nil // force a gain recompute at the new size
	}
}

// SolveTwoClassScratch is the two-class solve of SolveTwoClass on
// caller-provided scratch, with no per-call allocations once the scratch
// is warm, and with two options:
//
//   - extra is one phantom route treated as if it were part of
//     in.Routes: the way to evaluate a route candidate without mutating
//     the set. in.Routes is never modified, so concurrent calls over the
//     same set (each with its own scratch) are safe.
//   - d0 warm-starts the iteration (nil means all zeros). The iteration
//     is monotone, so any d0 below the least fixed point, such as the
//     converged solution of a subset of the routes, yields the same
//     answer in fewer iterations. A d0 above the fixed point is invalid
//     and gives meaningless results.
//
// The sweep is restricted to the servers actually crossed by in.Routes
// or extra: every other server's update is the constant gain·T from the
// first sweep on (its Y_k is 0 in every iteration), so folding those
// servers' first-sweep change and constant delay into the convergence
// bookkeeping analytically reproduces the full sweep exactly, at
// O(active servers) per iteration.
func (m *Model) SolveTwoClassScratch(in ClassInput, extra *routes.Route, d0 []float64, sc *SolveScratch) (*Result, error) {
	if err := m.validate(in); err != nil {
		return nil, err
	}
	nsrv := m.net.NumServers()
	if d0 != nil && len(d0) != nsrv {
		return nil, fmt.Errorf("delay: warm start length %d, want %d", len(d0), nsrv)
	}
	sc.ensure(nsrv)
	burst, rho := in.Class.Bucket.Burst, in.Class.Bucket.Rate
	if sc.gain == nil || sc.gainModel != m || sc.gainAlpha != in.Alpha || sc.gainRho != rho || sc.gainNMode != m.NMode {
		if sc.gain == nil {
			sc.gain = make([]float64, nsrv)
		}
		for s := 0; s < nsrv; s++ {
			sc.gain[s] = Gain(in.Alpha, rho, m.serverN(s))
		}
		sc.gainModel, sc.gainAlpha, sc.gainRho, sc.gainNMode = m, in.Alpha, rho, m.NMode
	}
	res := &sc.res
	res.Converged = false
	res.Iterations = 0
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
	} else {
		for s := range res.D {
			res.D[s] = 0
		}
	}
	m.iterateActive(in, extra, res, sc, burst, rho)
	return res, nil
}

// iterateActive runs the Equation (14) sweep d ← Z(d) restricted to the
// active servers (those crossed by the route set or the phantom route),
// reproducing the full sweep over every server bit for bit:
//
//   - an inactive server has Y_k = 0 in every sweep, so its update is
//     the constant c_s = gain_s·T; its delta is |c_s − d0_s| in sweep 1
//     and exactly 0 afterwards, and its delay contribution to the
//     divergence test is the constant c_s;
//   - per-sweep maxima (worstChange, worstD) are exact floating-point
//     maxima, which are order-independent, so folding the precomputed
//     inactive contributions into the active loop's maxima yields the
//     same values — hence the same iteration count, verdict, and D/Y —
//     as the full sweep.
func (m *Model) iterateActive(in ClassInput, extra *routes.Route, res *Result, sc *SolveScratch, burst, rho float64) {
	if m.MaxIter < 1 {
		for s := range res.Y {
			res.Y[s] = 0
		}
		return
	}
	dom := sc.active[:0]
	inactChange1 := 0.0 // sweep-1 change contribution of inactive servers
	inactMaxD := 0.0    // every-sweep delay contribution of inactive servers
	for s := range res.D {
		if in.Routes.CrossCount(s) > 0 {
			sc.inDom[s] = true
			dom = append(dom, s)
		}
	}
	if extra != nil {
		for _, s := range extra.Servers {
			if !sc.inDom[s] {
				sc.inDom[s] = true
				dom = append(dom, s)
			}
		}
	}
	for s := range res.D {
		if sc.inDom[s] {
			continue
		}
		c := sc.gain[s] * burst
		if ch := math.Abs(c - res.D[s]); ch > inactChange1 {
			inactChange1 = ch
		}
		if c > inactMaxD {
			inactMaxD = c
		}
		res.D[s] = c // the inactive fixed point, reached at sweep 1
		res.Y[s] = 0 // no route crosses s, so its upstream delay is 0
	}
	sc.active = dom
	defer func() {
		for _, s := range dom {
			sc.inDom[s] = false
		}
	}()

	for iter := 1; iter <= m.MaxIter; iter++ {
		res.Iterations = iter
		for _, s := range dom {
			res.Y[s] = 0
		}
		in.Routes.AccumulateY(res.D, res.Y, extra, &sc.pre)
		worstChange := 0.0
		worstD := 0.0
		for _, s := range dom {
			v := sc.gain[s] * (burst + rho*res.Y[s])
			if ch := math.Abs(v - res.D[s]); ch > worstChange {
				worstChange = ch
			}
			if v > worstD {
				worstD = v
			}
			sc.next[s] = v
		}
		if iter == 1 && inactChange1 > worstChange {
			worstChange = inactChange1
		}
		if inactMaxD > worstD {
			worstD = inactMaxD
		}
		for _, s := range dom {
			res.D[s] = sc.next[s]
		}
		if worstD > m.DivergeCap {
			res.Converged = false
			return
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			res.Converged = true
			in.Routes.ComputeYExtra(res.D, res.Y, extra, &sc.pre)
			return
		}
	}
	res.Converged = false
}
