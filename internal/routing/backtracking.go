package routing

import (
	"ubac/internal/delay"
	"ubac/internal/routes"
)

// Backtracking extends the paper's no-backtrack heuristic (Section 5.2
// explicitly uses a "no-backtrack search algorithm") with bounded
// chronological backtracking: when a pair has no acceptable candidate,
// the previous pair's choice is undone and its next candidate tried,
// up to MaxBacktracks undo steps in total. With MaxBacktracks = 0 it
// degenerates to the greedy heuristic; the first descent is identical,
// so it can only improve feasibility, at bounded extra cost. Provided as
// an ablation of the paper's no-backtracking design decision.
type Backtracking struct {
	// K and LengthSlack follow Heuristic (defaults 8 and 2).
	K           int
	LengthSlack int
	// MaxBacktracks bounds the total number of undo steps (default 500).
	MaxBacktracks int
	// Engine, when non-nil, is a candidate memo shared with other
	// selections.
	Engine *Engine
}

// Name returns "backtracking".
func (Backtracking) Name() string { return "backtracking" }

func (h Backtracking) k() int {
	if h.K > 0 {
		return h.K
	}
	return 8
}

func (h Backtracking) slack() int {
	if h.LengthSlack > 0 {
		return h.LengthSlack
	}
	return 2
}

func (h Backtracking) budget() int {
	if h.MaxBacktracks > 0 {
		return h.MaxBacktracks
	}
	return 500
}

// level is the search state of one pair position.
type level struct {
	cands      []candidate
	next       int
	baseBefore []float64 // converged delay vector before this level's route
}

// Select implements Selector with depth-first search over per-pair
// candidate lists. Each level's untried candidates are evaluated as
// phantom routes from the level's saved base vector; the first feasible
// candidate in order wins.
func (h Backtracking) Select(m *delay.Model, req Request) (*routes.Set, *Report, error) {
	start, emit := selectStart(m)
	pairs, err := resolvePairs(m, req)
	if err != nil {
		return nil, nil, err
	}
	net := m.Network()
	rg := net.RouterGraph()
	rep := &Report{Selector: "backtracking", PairsTotal: len(pairs)}

	// Same ordering as the greedy heuristic: longest pairs first.
	ordered := orderPairs(rg, pairs, false)

	set := routes.NewSet(net)
	base := make([]float64, net.NumServers())

	run := newEvalRun(engineOr(h.Engine), m, req, set, base)

	levels := make([]*level, len(ordered))
	backtracks := 0
	i := 0

	buildLevel := func(p [2]int) (*level, error) {
		if err := run.buildCandidates(p, h.k(), h.slack(), false, true); err != nil {
			return nil, err
		}
		return &level{
			cands:      append([]candidate(nil), run.cands...),
			baseBefore: append([]float64(nil), base...),
		}, nil
	}

	for i < len(ordered) {
		if levels[i] == nil {
			lv, err := buildLevel(ordered[i])
			if err != nil {
				return nil, nil, err
			}
			levels[i] = lv
		}
		lv := levels[i]
		// Evaluate this level's remaining candidates from its saved base.
		run.cands = lv.cands[lv.next:]
		run.base = lv.baseBefore
		idx, tried, err := run.pickFirst()
		run.base = base
		if err != nil {
			return nil, nil, err
		}
		rep.CandidatesTried += tried
		lv.next += tried
		if idx >= 0 {
			if err := set.Add(run.cands[idx].route); err != nil {
				return nil, nil, err
			}
			copy(base, run.best)
			i++
			continue
		}
		// Exhausted this level: backtrack if allowed.
		levels[i] = nil
		if i == 0 || backtracks >= h.budget() {
			failed := ordered[i]
			rep.FailedPair = &failed
			rep.Safe = false
			rep.PairsRouted = set.Len()
			slack := set.MinSlackExtra(base, req.Class.Deadline, m.FixedPerHop, nil)
			rep.WorstDelay = req.Class.Deadline - slack
			rep.Backtracks = backtracks
			emitSelect(m, emit, start, rep)
			return set, rep, nil
		}
		backtracks++
		i--
		set.RemoveLast()
		copy(base, levels[i].baseBefore)
	}

	rep.PairsRouted = set.Len()
	for r := 0; r < set.Len(); r++ {
		rep.TotalHops += set.Route(r).Hops()
	}
	slack := set.MinSlackExtra(base, req.Class.Deadline, m.FixedPerHop, nil)
	rep.WorstDelay = req.Class.Deadline - slack
	rep.Safe = delay.MeetsDeadline(rep.WorstDelay, req.Class.Deadline)
	rep.Backtracks = backtracks
	emitSelect(m, emit, start, rep)
	return set, rep, nil
}
