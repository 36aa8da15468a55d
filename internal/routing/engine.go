package routing

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"ubac/internal/delay"
	"ubac/internal/graph"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// Engine is the per-pair candidate memo the selectors share: it caches
// each pair's k-shortest-path candidate routes so that repeated
// selections over the same network (portfolio members, backtracking
// revisits, repeated daemon reconfigurations) never recompute Yen's
// algorithm or the path→route conversion for a pair they have already
// seen. An Engine is safe for concurrent use by multiple selections.
type Engine struct {
	mu   sync.Mutex
	memo map[memoKey][]routes.Route
}

// memoKey identifies one memoized candidate-route computation. Keying
// on the network pointer makes reuse across selections of the same
// topology free while never conflating distinct networks.
type memoKey struct {
	net      *topology.Network
	src, dst int
	k, slack int
	class    string
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{memo: make(map[memoKey][]routes.Route)}
}

// engineOr returns e, or a fresh engine private to one Select if e is nil.
func engineOr(e *Engine) *Engine {
	if e != nil {
		return e
	}
	return NewEngine()
}

// memoRoutes returns the pair's filtered, converted candidate routes,
// computing and caching them on first use. The returned slice is shared
// and must be treated as read-only.
func (e *Engine) memoRoutes(r *evalRun, p [2]int, k, slack int) ([]routes.Route, error) {
	key := memoKey{net: r.net, src: p[0], dst: p[1], k: k, slack: slack, class: r.class.Name}
	e.mu.Lock()
	rs, ok := e.memo[key]
	e.mu.Unlock()
	if ok {
		return rs, nil
	}
	paths, err := r.ksp.Paths(p[0], p[1], k)
	if err != nil {
		return nil, err
	}
	spLen := len(paths[0]) - 1 // paths[0] is a BFS shortest path
	rs = make([]routes.Route, 0, len(paths))
	for _, path := range paths {
		// Filter on raw path length before paying for the path→route
		// conversion; over-long candidates never become routes.
		if len(path)-1 > spLen+slack {
			continue
		}
		rt, err := routes.FromRouterPath(r.net, r.class.Name, path)
		if err != nil {
			return nil, err
		}
		rs = append(rs, rt)
	}
	e.mu.Lock()
	e.memo[key] = rs
	e.mu.Unlock()
	return rs, nil
}

// pairErr tags a per-pair failure with the pair it happened on.
func pairErr(p [2]int, err error) error {
	return fmt.Errorf("routing: pair %v: %w", p, err)
}

// candidate is one scored candidate route of the current pair.
type candidate struct {
	route  routes.Route
	cyclic bool
	score  float64
}

// evalRun is the state of one selection's candidate evaluation: the
// accepted set, its converged delay vector (base), the current pair's
// candidates and the solver scratch every candidate is solved in.
type evalRun struct {
	eng      *Engine
	m        *delay.Model
	net      *topology.Network
	rg       *graph.Graph
	class    traffic.Class
	alpha    float64
	deadline float64
	set      *routes.Set
	ksp      *graph.KSPSolver
	wksp     *graph.WeightedKSPSolver
	scratch  *delay.SolveScratch
	base     []float64 // warm-start delay vector for this batch

	cands        []candidate
	scratchCands []candidate
	order        []int     // pick's visit order
	bounds       []float64 // pick's per-candidate bounds
	best         []float64 // converged delay vector of pick's winner
}

func newEvalRun(eng *Engine, m *delay.Model, req Request, set *routes.Set, base []float64) *evalRun {
	net := m.Network()
	return &evalRun{
		eng:      eng,
		m:        m,
		net:      net,
		rg:       net.RouterGraph(),
		class:    req.Class,
		alpha:    req.Alpha,
		deadline: req.Class.Deadline,
		set:      set,
		ksp:      graph.NewKSPSolver(net.RouterGraph()),
		wksp:     graph.NewWeightedKSPSolver(net.RouterGraph()),
		scratch:  &delay.SolveScratch{},
		base:     base,
	}
}

func (r *evalRun) input() delay.ClassInput {
	return delay.ClassInput{Class: r.class, Alpha: r.alpha, Routes: r.set}
}

// buildCandidates fills r.cands with the pair's scored, sorted
// candidates: k-shortest paths within the length slack (memoized for
// hop-count generation), scored by their end-to-end bound under the
// current base vector, acyclic candidates first (heuristics 2+3 of
// Section 5.2).
func (r *evalRun) buildCandidates(p [2]int, k, slack int, delayWeighted, checkCycles bool) error {
	r.scratchCands = r.scratchCands[:0]
	if delayWeighted {
		// Candidate paths over the current delay vector: arc cost is the
		// link server's d_k plus a small hop charge that keeps path
		// lengths bounded when delays are ~0 and breaks ties toward
		// shorter routes. Not memoized — the weights change per pair.
		hop := r.deadline / 1e4
		weight := func(u, v int) float64 {
			s, ok := r.net.ServerFor(u, v)
			if !ok {
				return math.Inf(1)
			}
			return r.base[s] + hop
		}
		paths, err := r.wksp.Paths(p[0], p[1], k, weight)
		if err != nil {
			return pairErr(p, err)
		}
		// Guarantee the hop-shortest path is among the candidates.
		sp, err := r.rg.ShortestPath(p[0], p[1])
		if err != nil {
			return pairErr(p, err)
		}
		if !pathIn(paths, sp) {
			paths = append(paths, sp)
		}
		spLen := len(sp) - 1
		for _, path := range paths {
			if len(path)-1 > spLen+slack {
				continue
			}
			rt, err := routes.FromRouterPath(r.net, r.class.Name, path)
			if err != nil {
				return err
			}
			r.scratchCands = append(r.scratchCands, candidate{route: rt})
		}
	} else {
		rs, err := r.eng.memoRoutes(r, p, k, slack)
		if err != nil {
			return pairErr(p, err)
		}
		for _, rt := range rs {
			r.scratchCands = append(r.scratchCands, candidate{route: rt})
		}
	}
	var dep *graph.Graph
	if checkCycles {
		dep = r.set.DependencyGraph()
	}
	for i := range r.scratchCands {
		c := &r.scratchCands[i]
		c.score = c.route.Delay(r.base)
		if dep != nil {
			c.cyclic = routes.WouldCycleOn(dep, c.route)
		}
	}
	cands := r.scratchCands
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].cyclic != cands[b].cyclic {
			return !cands[a].cyclic
		}
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		return cands[a].route.Hops() < cands[b].route.Hops()
	})
	r.cands = cands
	return nil
}

// evalCandidate solves the fixed point with candidate ci as a phantom
// member of the accepted set, warm-started from the batch's base. It
// reports whether the candidate is feasible (fixed point converged and
// every route meets the deadline with it added) and the resulting
// minimum slack; the converged vector is d, valid until the next solve.
func (r *evalRun) evalCandidate(ci int) (d []float64, slack float64, ok bool, err error) {
	res, err := r.m.SolveTwoClassScratch(r.input(), &r.cands[ci].route, r.base, r.scratch)
	if err != nil || !res.Converged {
		return nil, 0, false, err
	}
	slack, _ = r.set.MinSlackExtra(res.D, r.deadline, r.m.FixedPerHop, &r.cands[ci].route)
	return res.D, slack, delay.MeetsDeadline(r.deadline-slack, r.deadline), nil
}

// pick returns the feasible candidate with the largest key, ties to the
// lowest index, or -1 if none is feasible, and leaves the winner's
// converged vector in r.best. The key is the candidate's solved slack
// when bySlack is set and 0 otherwise; bound(ci) must be at least the
// key.
//
// It solves candidates one at a time in descending bound order, ties by
// index, and stops at the first whose bound cannot beat the best key
// solved so far: lower, or equal at a higher index. No later
// candidate's bound is better, so none of them is solved. With a
// constant bound and key the visit is a first-accept scan in index
// order.
func (r *evalRun) pick(bound func(ci int) float64, bySlack bool) (int, error) {
	n := len(r.cands)
	r.order = r.order[:0]
	r.bounds = r.bounds[:0]
	for ci := 0; ci < n; ci++ {
		r.order = append(r.order, ci)
		r.bounds = append(r.bounds, bound(ci))
	}
	slices.SortStableFunc(r.order, func(a, b int) int { return cmp.Compare(r.bounds[b], r.bounds[a]) })
	best, bestKey := -1, 0.0
	beats := func(v float64, ci int) bool {
		return best < 0 || v > bestKey || (v == bestKey && ci < best)
	}
	for _, ci := range r.order {
		if !beats(r.bounds[ci], ci) {
			break
		}
		d, slack, ok, err := r.evalCandidate(ci)
		if err != nil {
			return -1, err
		}
		key := 0.0
		if bySlack {
			key = slack
		}
		if ok && beats(key, ci) {
			best, bestKey = ci, key
			r.best = append(r.best[:0], d...)
		}
	}
	return best, nil
}

// pickLookahead returns the feasible candidate whose phantom solve
// leaves the largest minimum slack. A candidate's bound is the smaller
// of the set's and its own slack under base: the phantom solve only
// raises delays from base (DESIGN.md §9), so no slack grows in it.
func (r *evalRun) pickLookahead() (int, error) {
	perHop := r.m.FixedPerHop
	setSlack, _ := r.set.MinSlackExtra(r.base, r.deadline, perHop, nil)
	return r.pick(func(ci int) float64 {
		return min(setSlack, r.cands[ci].route.Slack(r.base, r.deadline, perHop))
	}, true)
}

// pickFirst returns the first feasible candidate in index order (-1 if
// none) and the number of candidates it tried: idx+1, or every one.
func (r *evalRun) pickFirst() (idx, tried int, err error) {
	if idx, err = r.pick(func(int) float64 { return 0 }, false); idx < 0 {
		return idx, len(r.cands), err
	}
	return idx, idx + 1, nil
}
