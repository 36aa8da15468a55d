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

// Engine is the shared candidate-evaluation backend of the selectors: a
// persistent worker pool that fans the per-pair candidate solves out
// across goroutines, plus a memo of per-pair k-shortest-path candidate
// routes so that repeated selections over the same network (portfolio
// members, backtracking revisits, repeated daemon reconfigurations)
// never recompute Yen's algorithm or the path→route conversion for a
// pair they have already seen.
//
// Parallel evaluation is bit-identical to sequential evaluation by
// construction: every candidate is solved as a phantom route from the
// same warm-start base into a slot indexed by the candidate's position,
// and evalRun.pick takes the best key with ties to the lowest index, a
// winner that does not depend on how many candidates a wave solved —
// goroutine scheduling cannot influence any result. Each worker owns a
// delay.SolveScratch, so steady-state evaluation does not allocate.
//
// An Engine is safe for concurrent use by multiple selections (the
// portfolio runs its members concurrently over one engine). Close
// releases the workers; the engine must not be used afterwards.
type Engine struct {
	workers int
	start   sync.Once
	mu      sync.Mutex
	tasks   chan task
	memo    map[memoKey][]routes.Route
	closed  bool
}

// task asks a worker to evaluate candidate ci of a selection run.
type task struct {
	run *evalRun
	ci  int
	wg  *sync.WaitGroup
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

// NewEngine returns an engine whose pool has the given number of
// workers. Values below 2 (including 0) yield an engine that evaluates
// inline on the calling goroutine — still memoizing candidates, never
// spawning goroutines.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers, memo: make(map[memoKey][]routes.Route)}
}

// Workers reports the pool size the engine was built with.
func (e *Engine) Workers() int { return e.workers }

// Close shuts the worker pool down. Idempotent; the engine must not be
// used for further selections afterwards.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.tasks != nil {
		close(e.tasks)
	}
}

// startWorkers lazily spins the pool up on first parallel use, so an
// engine that only ever evaluates inline costs nothing.
func (e *Engine) startWorkers() {
	e.start.Do(func() {
		ch := make(chan task, e.workers)
		for i := 0; i < e.workers; i++ {
			go func() {
				sc := &delay.SolveScratch{}
				for t := range ch {
					t.run.evalCandidate(t.ci, sc)
					t.wg.Done()
				}
			}()
		}
		e.mu.Lock()
		e.tasks = ch
		e.mu.Unlock()
	})
}

// engineFor resolves the engine a selector should use: the caller's
// shared engine if one was provided, else a fresh owned engine the
// selector must Close when its selection finishes.
func engineFor(e *Engine, workers int) (eng *Engine, owned bool) {
	if e != nil {
		return e, false
	}
	return NewEngine(workers), true
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

// outcome is the evaluation result of one candidate: whether it is
// feasible (fixed point converged and every route meets the deadline
// with it added), the resulting minimum slack, and the converged delay
// vector to warm-start from if it is accepted.
type outcome struct {
	ok    bool
	slack float64
	d     []float64
}

// evalRun is the per-selection state shared between the selection
// goroutine and the engine's workers. The selection goroutine owns
// cands/base between waves; during a wave the workers only read them
// and write disjoint slots of outs/errs/dbufs.
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
	scratch  *delay.SolveScratch // inline-evaluation scratch
	base     []float64           // warm-start delay vector for this batch

	cands        []candidate
	scratchCands []candidate
	outs         []outcome
	errs         []error
	dbufs        [][]float64
	order        []int     // pick's visit order
	bounds       []float64 // pick's per-candidate bounds
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

// prepare resets the per-candidate slots for n candidates, keeping
// buffer capacity (dbufs in particular) across pairs.
func (r *evalRun) prepare(n int) {
	if cap(r.outs) < n {
		r.outs = make([]outcome, n)
		r.errs = make([]error, n)
		r.order = make([]int, n)
		r.bounds = make([]float64, n)
	}
	r.outs = r.outs[:n]
	r.errs = r.errs[:n]
	r.order = r.order[:n]
	r.bounds = r.bounds[:n]
	for i := 0; i < n; i++ {
		r.outs[i] = outcome{}
		r.errs[i] = nil
	}
	for len(r.dbufs) < n {
		r.dbufs = append(r.dbufs, nil)
	}
}

// evalCandidate solves the fixed point with candidate ci as a phantom
// member of the accepted set, warm-started from the batch's base, and
// records feasibility, slack, and the converged delay vector. It only
// reads shared state and writes slots indexed by ci, so distinct
// candidates evaluate concurrently without synchronization.
func (r *evalRun) evalCandidate(ci int, sc *delay.SolveScratch) {
	res, err := r.m.SolveTwoClassScratch(r.input(), &r.cands[ci].route, r.base, sc)
	if err != nil {
		r.errs[ci] = err
		return
	}
	if !res.Converged {
		return
	}
	slack, _ := r.set.MinSlackExtra(res.D, r.deadline, r.m.FixedPerHop, &r.cands[ci].route)
	if delay.MeetsDeadline(r.deadline-slack, r.deadline) {
		if r.dbufs[ci] == nil {
			r.dbufs[ci] = make([]float64, len(res.D))
		}
		copy(r.dbufs[ci], res.D)
		r.outs[ci] = outcome{ok: true, slack: slack, d: r.dbufs[ci]}
	}
}

// pick returns the feasible candidate with the largest key, ties to the
// lowest index, or -1 if none is feasible. bound(ci) must be at least
// key(ci), which pick reads only once ci is solved.
//
// It visits candidates in descending bound order, ties by index, in
// waves of the pool size. Before each wave it stops at the first
// candidate whose bound cannot beat the best key solved so far: lower,
// or equal at a higher index. No later candidate's bound is better, so
// none of them is solved. With a constant bound and key the visit is a
// first-accept scan in index order.
func (r *evalRun) pick(bound, key func(ci int) float64) (int, error) {
	n := len(r.cands)
	r.prepare(n)
	for ci := range r.order {
		r.order[ci] = ci
		r.bounds[ci] = bound(ci)
	}
	slices.SortStableFunc(r.order, func(a, b int) int { return cmp.Compare(r.bounds[b], r.bounds[a]) })
	best, bestKey := -1, 0.0
	beats := func(v float64, ci int) bool {
		return best < 0 || v > bestKey || (v == bestKey && ci < best)
	}
	for lo := 0; lo < n && beats(r.bounds[r.order[lo]], r.order[lo]); {
		hi := lo + 1
		for hi < n && hi-lo < r.eng.workers && beats(r.bounds[r.order[hi]], r.order[hi]) {
			hi++
		}
		wave := r.order[lo:hi]
		if len(wave) == 1 {
			r.evalCandidate(wave[0], r.scratch)
		} else {
			r.eng.startWorkers()
			var wg sync.WaitGroup
			wg.Add(len(wave))
			for _, ci := range wave {
				r.eng.tasks <- task{run: r, ci: ci, wg: &wg}
			}
			wg.Wait()
		}
		for _, ci := range wave {
			if r.errs[ci] != nil {
				return -1, r.errs[ci]
			}
			if r.outs[ci].ok && beats(key(ci), ci) {
				best, bestKey = ci, key(ci)
			}
		}
		lo = hi
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
	}, func(ci int) float64 { return r.outs[ci].slack })
}

// pickFirst returns the first feasible candidate in index order (-1 if
// none) and the count a sequential scan would have tried: idx+1, or
// every candidate. A wave may solve a few more; the count hides them.
func (r *evalRun) pickFirst() (idx, tried int, err error) {
	constant := func(int) float64 { return 0 }
	if idx, err = r.pick(constant, constant); idx < 0 {
		return idx, len(r.cands), err
	}
	return idx, idx + 1, nil
}
