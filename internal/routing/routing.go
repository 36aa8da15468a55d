// Package routing implements route selection (Section 5.2): the
// shortest-path baseline (SP) the paper compares against and the paper's
// greedy safe-route-selection heuristic. Safe route selection is NP-hard
// (reduction from Maximum Fixed-Length Disjoint Paths), so the heuristic
// is a no-backtrack search guided by the paper's three rules:
//
//  1. take source/destination pairs in decreasing order of shortest-path
//     distance;
//  2. prefer candidate routes that keep the union of selected routes
//     cycle-free at the link-server level (cycles feed delay back into
//     the Y_k recursion);
//  3. among the candidates, pick the one with the minimum end-to-end
//     delay bound.
//
// A pair's candidate is accepted only if, after adding it, the delay
// fixed point still converges and every route selected so far keeps
// meeting the class deadline — otherwise the next candidate is tried, and
// the selection fails when a pair has no acceptable candidate.
//
// Candidate evaluation is the dominant cost: a fixed-point solve per
// candidate that a slack bound taken before any solve cannot rule out
// (see evalRun.pick). The solves run one at a time through one solver
// scratch, warm-started from the accepted set's converged delay vector;
// an Engine memoizes per-pair candidate generation across selections.
package routing

import (
	"fmt"
	"sort"
	"time"

	"ubac/internal/delay"
	"ubac/internal/graph"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/traffic"
)

// Request describes one selection problem: route every (src, dst) pair
// for flows of Class under utilization assignment Alpha.
type Request struct {
	Class traffic.Class
	Alpha float64
	// Pairs lists the ordered source/destination router pairs to route.
	// Nil means all ordered pairs of edge routers.
	Pairs [][2]int
}

// Report describes the outcome of a selection.
type Report struct {
	Selector string
	// Safe reports whether the final route set passed verification
	// (all routes within deadline, fixed point converged).
	Safe bool
	// PairsRouted and PairsTotal count progress; they differ only on
	// failure.
	PairsRouted, PairsTotal int
	// FailedPair identifies the first unroutable pair when Safe is
	// false and the failure happened during selection (nil otherwise).
	FailedPair *[2]int
	// WorstDelay is the largest end-to-end bound over selected routes.
	WorstDelay float64
	// TotalHops sums the route lengths (route-length cost of the
	// selection).
	TotalHops int
	// CandidatesTried counts the candidates considered (heuristic and
	// backtracking): every candidate of every pair under Lookahead, up
	// to the accepted one in a first-accept scan. Lookahead solves only
	// those its slack bound cannot rule out; the solves are counted by
	// ubac_fixedpoint_runs_total.
	CandidatesTried int
	// Backtracks counts undo steps (Backtracking selector only).
	Backtracks int
}

// Selector chooses a route set for a request over the model's network.
type Selector interface {
	// Name identifies the selector in reports and benchmarks.
	Name() string
	// Select routes all pairs. It returns the selected routes and a
	// report; the error is reserved for invalid inputs, while an unsafe
	// or failed selection is reported via Report.Safe=false.
	Select(m *delay.Model, req Request) (*routes.Set, *Report, error)
}

// resolvePairs expands a nil pair list to all ordered edge-router pairs.
func resolvePairs(m *delay.Model, req Request) ([][2]int, error) {
	if err := req.Class.Validate(); err != nil {
		return nil, err
	}
	if !(req.Alpha > 0 && req.Alpha < 1) {
		return nil, fmt.Errorf("routing: alpha %g out of (0,1)", req.Alpha)
	}
	pairs := req.Pairs
	if pairs == nil {
		pairs = m.Network().Pairs()
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			return nil, fmt.Errorf("routing: pair %v routes a router to itself", p)
		}
		if p[0] < 0 || p[0] >= m.Network().NumRouters() || p[1] < 0 || p[1] >= m.Network().NumRouters() {
			return nil, fmt.Errorf("routing: pair %v out of range", p)
		}
	}
	return pairs, nil
}

// orderPairs applies heuristic 1 — longest pairs first, with a
// deterministic tie-break — returning a fresh slice either way.
func orderPairs(rg *graph.Graph, pairs [][2]int, keepOrder bool) [][2]int {
	ordered := append([][2]int(nil), pairs...)
	if keepOrder {
		return ordered
	}
	dist := make([]int, len(ordered))
	var from []int // hop distances from the last pair's source
	for i, p := range ordered {
		if i == 0 || p[0] != ordered[i-1][0] {
			from = rg.Distances(p[0])
		}
		dist[i] = from[p[1]]
	}
	idx := make([]int, len(ordered))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if dist[idx[a]] != dist[idx[b]] {
			return dist[idx[a]] > dist[idx[b]]
		}
		if ordered[idx[a]][0] != ordered[idx[b]][0] {
			return ordered[idx[a]][0] < ordered[idx[b]][0]
		}
		return ordered[idx[a]][1] < ordered[idx[b]][1]
	})
	sorted := make([][2]int, len(ordered))
	for i, j := range idx {
		sorted[i] = ordered[j]
	}
	return sorted
}

// selectStart begins timing a selection when telemetry is on; emitSelect
// reports it. Emission is skipped on error paths (the report is
// discarded there) and by the portfolio wrapper (its members each emit,
// so candidate totals are not double-counted).
func selectStart(m *delay.Model) (time.Time, bool) {
	if telemetry.Active(m.Sink) {
		return time.Now(), true
	}
	return time.Time{}, false
}

func emitSelect(m *delay.Model, emit bool, start time.Time, rep *Report) {
	if !emit {
		return
	}
	m.Sink.RouteSelect(telemetry.RouteSelect{
		Selector:    rep.Selector,
		PairsRouted: rep.PairsRouted,
		PairsTotal:  rep.PairsTotal,
		Candidates:  rep.CandidatesTried,
		Safe:        rep.Safe,
		Elapsed:     time.Since(start),
	})
}

// SP is the shortest-path baseline of Section 6: every pair takes its
// BFS shortest route, with no regard for delay feedback.
type SP struct{}

// Name returns "sp".
func (SP) Name() string { return "sp" }

// Select routes every pair over its shortest path and verifies the
// resulting set.
func (SP) Select(m *delay.Model, req Request) (*routes.Set, *Report, error) {
	start, emit := selectStart(m)
	pairs, err := resolvePairs(m, req)
	if err != nil {
		return nil, nil, err
	}
	set := routes.NewSet(m.Network())
	rg := m.Network().RouterGraph()
	rep := &Report{Selector: "sp", PairsTotal: len(pairs)}
	for _, p := range pairs {
		path, err := rg.ShortestPath(p[0], p[1])
		if err != nil {
			return nil, nil, pairErr(p, err)
		}
		r, err := routes.FromRouterPath(m.Network(), req.Class.Name, path)
		if err != nil {
			return nil, nil, err
		}
		if err := set.Add(r); err != nil {
			return nil, nil, err
		}
		rep.PairsRouted++
		rep.TotalHops += r.Hops()
	}
	res, err := m.SolveTwoClass(delay.ClassInput{Class: req.Class, Alpha: req.Alpha, Routes: set})
	if err != nil {
		return nil, nil, err
	}
	if res.Converged {
		slack := set.MinSlackExtra(res.D, req.Class.Deadline, m.FixedPerHop, nil)
		rep.WorstDelay = req.Class.Deadline - slack
		rep.Safe = delay.MeetsDeadline(rep.WorstDelay, req.Class.Deadline)
	}
	emitSelect(m, emit, start, rep)
	return set, rep, nil
}

// Mode selects how the heuristic scores a pair's candidate routes.
type Mode int

const (
	// Lookahead (the default) evaluates each candidate by tentatively
	// adding it and re-solving the delay fixed point, then picks the
	// feasible candidate that leaves the system with the largest
	// minimum deadline slack. This realizes the paper's "most promising
	// route" with a one-step lookahead.
	Lookahead Mode = iota
	// Cheap scores candidates by their end-to-end bound under the
	// current delay vector without re-solving, accepting the first that
	// verifies. Faster but weaker; kept for the ablation benches.
	Cheap
)

// Heuristic is the paper's safe route selection algorithm with tunable
// knobs for the ablation benches. The zero value uses the defaults.
type Heuristic struct {
	// K is the number of candidate shortest paths per pair (default 8).
	K int
	// LengthSlack admits candidates up to this many hops longer than
	// the pair's shortest path (default 2).
	LengthSlack int
	// Mode selects the candidate scoring strategy (default Lookahead).
	Mode Mode
	// IgnoreCycles disables heuristic 2 (acyclic preference) for
	// ablation.
	IgnoreCycles bool
	// IgnoreOrder disables heuristic 1 (longest pairs first) for
	// ablation, keeping the input order.
	IgnoreOrder bool
	// Engine, when non-nil, is a candidate memo shared with other
	// selections. When nil, Select uses a private one.
	Engine *Engine
	// DelayWeighted generates each pair's candidate paths with Yen's
	// algorithm over the *current delay vector* (arc cost = the link
	// server's d_k plus a small hop charge) instead of hop counts, so
	// candidates actively route around already-hot servers. The
	// hop-count shortest path is always kept as a candidate.
	DelayWeighted bool
}

// Name returns "heuristic".
func (Heuristic) Name() string { return "heuristic" }

func (h Heuristic) k() int {
	if h.K > 0 {
		return h.K
	}
	return 8
}

func (h Heuristic) slack() int {
	if h.LengthSlack > 0 {
		return h.LengthSlack
	}
	return 2
}

// Select runs the greedy search described in the package comment.
func (h Heuristic) Select(m *delay.Model, req Request) (*routes.Set, *Report, error) {
	start, emit := selectStart(m)
	pairs, err := resolvePairs(m, req)
	if err != nil {
		return nil, nil, err
	}
	net := m.Network()
	rg := net.RouterGraph()
	rep := &Report{Selector: "heuristic", PairsTotal: len(pairs)}

	// Heuristic 1: longest pairs first (deterministic tie-break).
	ordered := orderPairs(rg, pairs, h.IgnoreOrder)

	set := routes.NewSet(net)
	base := make([]float64, net.NumServers()) // converged d of the accepted set

	run := newEvalRun(engineOr(h.Engine), m, req, set, base)

	for _, p := range ordered {
		if err := run.buildCandidates(p, h.k(), h.slack(), h.DelayWeighted, !h.IgnoreCycles); err != nil {
			return nil, nil, err
		}
		// A candidate is judged as a phantom member of the set, which is
		// bit-identical to adding it and re-solving, so no tentative set
		// mutation is needed.
		var idx int
		if h.Mode == Lookahead {
			// Keep the feasible candidate that leaves the largest
			// worst-route slack (ties to the lowest index). Every
			// candidate is considered; pick solves only those its slack
			// bound cannot rule out.
			idx, err = run.pickLookahead()
			rep.CandidatesTried += len(run.cands)
		} else {
			// Cheap mode: accept the first candidate that verifies.
			var tried int
			idx, tried, err = run.pickFirst()
			rep.CandidatesTried += tried
		}
		if err != nil {
			return nil, nil, err
		}
		if idx < 0 {
			failed := p
			rep.FailedPair = &failed
			rep.Safe = false
			slack := set.MinSlackExtra(base, req.Class.Deadline, m.FixedPerHop, nil)
			rep.WorstDelay = req.Class.Deadline - slack
			emitSelect(m, emit, start, rep)
			return set, rep, nil
		}
		if err := set.Add(run.cands[idx].route); err != nil {
			return nil, nil, err
		}
		copy(base, run.best)
		rep.PairsRouted++
		rep.TotalHops += run.cands[idx].route.Hops()
	}
	slack := set.MinSlackExtra(base, req.Class.Deadline, m.FixedPerHop, nil)
	rep.WorstDelay = req.Class.Deadline - slack
	rep.Safe = delay.MeetsDeadline(rep.WorstDelay, req.Class.Deadline)
	emitSelect(m, emit, start, rep)
	return set, rep, nil
}
