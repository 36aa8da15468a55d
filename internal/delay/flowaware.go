package delay

import (
	"fmt"
	"math"

	"ubac/internal/routes"
	"ubac/internal/traffic"
)

// Entry is Count flows of one leaky bucket on one route. Every flow of
// an entry has the same aggregate terms and the same upstream jitter at
// each hop, so the flow-aware analysis is exact over entries: its state
// and its cost grow with the number of routes, not of flows.
type Entry struct {
	Bucket traffic.LeakyBucket
	Route  routes.Route
	Count  int
}

// FlowAwareResult is the outcome of SolveFlowAware.
type FlowAwareResult struct {
	// D[k] is the worst-case queueing delay of server k for the given
	// population.
	D []float64
	// PerEntry[e] is the end-to-end queueing delay bound of every flow
	// of entry e. Meaningful only if Converged.
	PerEntry []float64
	// Converged reports whether the fixed point stabilized.
	Converged bool
	// Iterations is the number of outer iterations performed.
	Iterations int
}

// MaxServerDelay returns the largest per-server bound.
func (r *FlowAwareResult) MaxServerDelay() float64 { return maxOf(r.D) }

// MaxEntryDelay returns the largest end-to-end bound over entries.
func (r *FlowAwareResult) MaxEntryDelay() float64 { return maxOf(r.PerEntry) }

func maxOf(xs []float64) float64 {
	worst := 0.0
	for _, x := range xs {
		if x > worst {
			worst = x
		}
	}
	return worst
}

// inputLink aggregates the entries that enter one server through one
// input link j: the feeding server, the burst sum Σ Count·T, the jitter
// term Σ Count·ρ·Y refolded every iteration, and the link's piece of
// backlog with cap C_j, B = Σ Count·ρ and A = burst + jitter.
type inputLink struct {
	from   int // the feeding server, or -1 for the host ingress
	burst  float64
	jitter float64
	piece
}

// SolveFlowAware computes worst-case per-server delays for an explicit
// population — the run-time, flow-state-dependent analysis (Equation (3)
// with the true per-link aggregates and per-route upstream jitter) that
// the paper's configuration-time bound deliberately replaces. It exists
// to quantify the aggregation penalty: how much utilization the
// flow-state-free bound gives up in exchange for needing no per-flow
// information in the core.
//
// Modeling notes. An entry enters server k either from the previous
// link server on its route or, at its first hop, through the host
// ingress link of its source router. Per input link j of server k, the
// aggregate arrival is bounded by
//
//	A_{k,j}(I) = min( C_j·I, Σ_e n_e·(T_e + ρ_e·Y_{e,k}) + (Σ_e n_e·ρ_e)·I ),
//
// where n_e is entry e's Count, Y_{e,k} is its accumulated upstream
// delay (a prefix sum along its route — tighter than the class-wide max
// the configuration-time analysis must assume), and C_j is the capacity
// of the feeding link server, or C_k for the host ingress. Then
// d_k = backlog(A_{k,·}, C_k)/C_k, iterated to a fixed point
// from d = 0 (monotone, so divergence means the population is unstable).
// Each server's input links are kept in first-seen order, so repeated
// solves of one population are bit-identical.
func (m *Model) SolveFlowAware(entries []Entry) (*FlowAwareResult, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("delay: no flows")
	}
	nsrv := m.net.NumServers()
	links := make([][]inputLink, nsrv)
	var at []int // link index of every (entry, hop), entries' hops in order
	load := make([]float64, nsrv)
	for i, e := range entries {
		if e.Count < 1 {
			return nil, fmt.Errorf("delay: entry %d: count %d < 1", i, e.Count)
		}
		if err := e.Bucket.Validate(); err != nil {
			return nil, fmt.Errorf("delay: entry %d: %w", i, err)
		}
		if err := e.Route.Validate(m.net); err != nil {
			return nil, fmt.Errorf("delay: entry %d: %w", i, err)
		}
		n := float64(e.Count)
		for pos, s := range e.Route.Servers {
			from, c := -1, m.net.ServerCapacity(s)
			if pos > 0 {
				from = e.Route.Servers[pos-1]
				c = m.net.ServerCapacity(from)
			}
			j := 0
			for j < len(links[s]) && links[s][j].from != from {
				j++
			}
			if j == len(links[s]) {
				links[s] = append(links[s], inputLink{from: from, piece: piece{cap: c}})
			}
			links[s][j].burst += n * e.Bucket.Burst
			links[s][j].B += n * e.Bucket.Rate
			load[s] += n * e.Bucket.Rate
			at = append(at, j)
		}
	}

	// Stability precheck: total sustained rate within capacity. It also
	// keeps every link's rate below its cap, since a transit link's
	// entries all cross the feeding server.
	for s, total := range load {
		if total >= m.net.ServerCapacity(s) {
			return nil, fmt.Errorf("delay: server %s overloaded (%.3g of %.3g b/s)",
				m.net.ServerName(s), total, m.net.ServerCapacity(s))
		}
	}

	res := &FlowAwareResult{D: make([]float64, nsrv), PerEntry: make([]float64, len(entries))}
	next := make([]float64, nsrv)
	ps := make([]piece, 0, m.net.MaxDegree()+1) // a server's input links and host ingress
	for iter := 1; iter <= m.MaxIter; iter++ {
		res.Iterations = iter
		// Fold each entry's jitter under the current d, once per hop.
		for _, ls := range links {
			for j := range ls {
				ls[j].jitter = 0
			}
		}
		k := 0
		for _, e := range entries {
			w, y := float64(e.Count)*e.Bucket.Rate, 0.0
			for _, s := range e.Route.Servers {
				links[s][at[k]].jitter += w * y
				y += res.D[s]
				k++
			}
		}
		worstChange, worstD := 0.0, 0.0
		for s, ls := range links {
			ps = ps[:0]
			for _, l := range ls {
				l.A = l.burst + l.jitter
				ps = append(ps, l.piece)
			}
			c := m.net.ServerCapacity(s)
			next[s] = backlog(ps, c) / c
			if ch := math.Abs(next[s] - res.D[s]); ch > worstChange {
				worstChange = ch
			}
			if next[s] > worstD {
				worstD = next[s]
			}
		}
		copy(res.D, next)
		if worstD > m.DivergeCap {
			return res, nil
		}
		if worstChange <= m.Tol*math.Max(1, worstD) {
			res.Converged = true
			break
		}
	}
	if !res.Converged {
		return res, nil
	}
	for i, e := range entries {
		res.PerEntry[i] = e.Route.Delay(res.D) + float64(e.Route.Hops())*m.FixedPerHop
	}
	return res, nil
}
