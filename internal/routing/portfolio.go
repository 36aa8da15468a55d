package routing

import (
	"ubac/internal/delay"
	"ubac/internal/routes"
)

// Portfolio runs a set of route selectors and returns the first safe
// result, falling back to the member that routed the most pairs when
// none succeeds. No single greedy no-backtrack heuristic dominates on
// every topology — delay-weighted candidate generation and the lookahead
// variant win on the dense MCI backbone, while the SP-guided variant is
// the only safe one near the Theorem 4 lower bound on the sparse NSFNET
// — so the portfolio realizes the paper's "our heuristics" (plural) as
// an ensemble with the useful guarantee that it is never worse than
// shortest-path routing: its last member considers exactly the shortest
// paths.
//
// Members run one at a time over one shared Engine, so the per-pair
// candidate routes one member generates are memoized for the next.
type Portfolio struct {
	// Members are tried in order; nil means the default ensemble
	// (lookahead, cheap scoring, SP-guided single-candidate).
	Members []Selector
	// Engine, when non-nil, is a caller-owned candidate memo used
	// instead of a per-Select one.
	Engine *Engine
}

// Name returns "portfolio".
func (Portfolio) Name() string { return "portfolio" }

func (p Portfolio) members(eng *Engine) []Selector {
	if p.Members != nil {
		return p.Members
	}
	return []Selector{
		Heuristic{DelayWeighted: true, Engine: eng},  // congestion-aware candidates
		Heuristic{Engine: eng},                       // lookahead, dense-topology winner
		Heuristic{Mode: Cheap, Engine: eng},          // fast greedy, occasionally best
		Heuristic{K: 1, LengthSlack: 1, Engine: eng}, // SP-guided: safe whenever SP is
	}
}

// Select implements Selector: the first safe member's result wins.
func (p Portfolio) Select(m *delay.Model, req Request) (*routes.Set, *Report, error) {
	var bestSet *routes.Set
	var bestRep *Report
	for _, sel := range p.members(engineOr(p.Engine)) {
		set, rep, err := sel.Select(m, req)
		if err != nil {
			return nil, nil, err
		}
		if rep.Safe {
			rep.Selector = "portfolio/" + rep.Selector
			return set, rep, nil
		}
		if bestRep == nil || rep.PairsRouted > bestRep.PairsRouted {
			bestSet, bestRep = set, rep
		}
	}
	bestRep.Selector = "portfolio/" + bestRep.Selector
	return bestSet, bestRep, nil
}
