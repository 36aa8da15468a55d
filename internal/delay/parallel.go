package delay

import (
	"math"
	"sync"
	"sync/atomic"

	"ubac/internal/routes"
)

// This file parallelizes the two-class fixed-point sweep. Each outer
// iteration of d ← Z(d) decomposes into two data-parallel phases:
//
//	A. Y accumulation — Y_k is a max over route prefix sums, so the
//	   route set's prefix forest shards across workers by tree (balanced
//	   by prefix count), each worker accumulating into a private buffer.
//	B. Delay update — d'_k = g_k·(T + ρ·Y_k) is independent per server,
//	   so the server vector shards across workers; each worker first
//	   merges the phase-A buffers for its servers with an elementwise
//	   max, then applies the closed form and tracks its shard's maximum
//	   change and maximum delay.
//
// Determinism: every per-element value is computed by exactly the same
// float64 expression as the sequential solver, and the only cross-shard
// reductions are elementwise max (order-independent, exact in floating
// point), so a converged parallel solve is bit-identical to the
// sequential one — same D, Y, and iteration count. On divergence the
// iteration count and verdict still match exactly (the first sweep in
// which any d'_k exceeds DivergeCap is a property of the values, not of
// the schedule), but the contents of D and Y are unspecified, as they
// already are for the sequential solver ("meaningful only if
// Converged").
//
// Early exit: a worker that sees d'_k > DivergeCap publishes divergence
// through a shared atomic flag; other workers poll it and abandon the
// remainder of their shard, so a blown-up sweep costs a fraction of a
// full one.

// sweepPool runs one function on n workers and barriers on completion.
// Worker 0 is the calling goroutine, so a pool of n costs n−1
// goroutines; workers persist across iterations to keep the per-sweep
// synchronization down to one channel send and one WaitGroup wait per
// helper per phase.
type sweepPool struct {
	cmds []chan func(int)
	wg   sync.WaitGroup
}

func startSweepPool(n int) *sweepPool {
	p := &sweepPool{cmds: make([]chan func(int), n-1)}
	for i := range p.cmds {
		ch := make(chan func(int), 1)
		p.cmds[i] = ch
		worker := i + 1
		go func() {
			for f := range ch {
				f(worker)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes f(worker) on every worker, including the caller as
// worker 0, and returns once all have finished.
func (p *sweepPool) run(f func(worker int)) {
	p.wg.Add(len(p.cmds))
	for _, ch := range p.cmds {
		ch <- f
	}
	f(0)
	p.wg.Wait()
}

func (p *sweepPool) stop() {
	for _, ch := range p.cmds {
		close(ch)
	}
}

// shard is a half-open index range [lo, hi).
type shard struct{ lo, hi int }

// shardTrees cuts the route set's nsrv prefix trees (one per first
// server) into n contiguous shards balanced by prefix count, the unit of
// phase-A work.
func shardTrees(set *routes.Set, nsrv, n int) []shard {
	total := 0
	for f := 0; f < nsrv; f++ {
		total += set.TreeLen(f)
	}
	out := make([]shard, n)
	lo, done := 0, 0
	for k := 0; k < n; k++ {
		target := (total * (k + 1)) / n
		hi := lo
		for hi < nsrv && done < target {
			done += set.TreeLen(hi)
			hi++
		}
		if k == n-1 {
			hi = nsrv
		}
		out[k] = shard{lo, hi}
		lo = hi
	}
	return out
}

// shardServers cuts [0, nsrv) into n near-equal contiguous ranges.
func shardServers(nsrv, n int) []shard {
	out := make([]shard, n)
	for k := 0; k < n; k++ {
		out[k] = shard{nsrv * k / n, nsrv * (k + 1) / n}
	}
	return out
}

// divergePoll is how many servers a phase-B worker processes between
// polls of the shared divergence flag.
const divergePoll = 1024

// iterateParallel is the Workers>1 counterpart of iterateSequential.
func (m *Model) iterateParallel(in ClassInput, extra *routes.Route, res *Result, gain []float64, burst, rho float64) {
	nsrv := len(res.D)
	w := m.Workers
	tshards := shardTrees(in.Routes, nsrv, w)
	sshards := shardServers(nsrv, w)

	partial := make([][]float64, w)
	for k := range partial {
		partial[k] = make([]float64, nsrv)
	}
	bufs := make([][]float64, w)
	next := make([]float64, nsrv)
	shardChange := make([]float64, w)
	shardMax := make([]float64, w)
	var diverged atomic.Bool

	pool := startSweepPool(w)
	defer pool.stop()

	for iter := 1; iter <= m.MaxIter; iter++ {
		res.Iterations = iter

		// Phase A: tree-sharded Y accumulation into private buffers.
		pool.run(func(k int) {
			p := partial[k]
			for i := range p {
				p[i] = 0
			}
			var ex *routes.Route
			if k == w-1 {
				ex = extra // the phantom route rides the last shard
			}
			in.Routes.ComputeYPartial(res.D, p, tshards[k].lo, tshards[k].hi, ex, &bufs[k])
		})

		// Phase B: server-sharded merge + closed-form update.
		pool.run(func(k int) {
			maxCh, maxD := 0.0, 0.0
			for s := sshards[k].lo; s < sshards[k].hi; s++ {
				if (s-sshards[k].lo)%divergePoll == 0 && diverged.Load() && k != 0 {
					// Another shard already blew past DivergeCap; this
					// sweep's values are moot. Worker 0 finishes so the
					// reduction below always sees one complete shard.
					return
				}
				y := partial[0][s]
				for j := 1; j < w; j++ {
					if partial[j][s] > y {
						y = partial[j][s]
					}
				}
				res.Y[s] = y
				v := gain[s] * (burst + rho*y)
				next[s] = v
				if ch := math.Abs(v - res.D[s]); ch > maxCh {
					maxCh = ch
				}
				if v > maxD {
					maxD = v
					if v > m.DivergeCap {
						diverged.Store(true)
					}
				}
			}
			shardChange[k], shardMax[k] = maxCh, maxD
		})

		if diverged.Load() {
			// Same sweep in which the sequential solver would have seen
			// worstD > DivergeCap: the flag is only ever set by a value
			// the sequential sweep also computes.
			res.Converged = false
			return
		}
		worstChange, worstD := 0.0, 0.0
		for k := 0; k < w; k++ {
			if shardChange[k] > worstChange {
				worstChange = shardChange[k]
			}
			if shardMax[k] > worstD {
				worstD = shardMax[k]
			}
		}
		copy(res.D, next)
		if worstChange <= m.Tol*math.Max(1, worstD) {
			res.Converged = true
			in.Routes.ComputeYExtra(res.D, res.Y, extra, &bufs[0])
			return
		}
	}
	res.Converged = false
}
