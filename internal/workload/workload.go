// Package workload generates call-level workloads for exercising the
// run-time admission controller: Poisson call arrivals with
// exponentially distributed holding times over a configurable pair
// distribution, plus the Erlang-B reference model used to sanity-check
// measured blocking probabilities.
//
// The paper's evaluation stops at the achievable utilization level; this
// package supplies the call-churn layer a deployment study needs on top
// of it (offered load in Erlangs, measured vs. analytic blocking).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Call is one generated call: it arrives at Arrive, lasts Holding
// seconds, and connects Src to Dst. Class and Tenant are optional
// labels stamped by ApplyMix for multi-tenant workloads; plain
// generators leave them empty.
type Call struct {
	Arrive   float64
	Holding  float64
	Src, Dst int
	Class    string
	Tenant   string
}

// Generator produces a Poisson call process. The zero value is not
// usable; construct with NewGenerator.
type Generator struct {
	rng *rand.Rand
	// ArrivalRate is the aggregate call arrival rate λ in calls/second.
	ArrivalRate float64
	// MeanHolding is the mean call duration 1/μ in seconds.
	MeanHolding float64
	// Pairs is the set of (src, dst) pairs calls are drawn from,
	// uniformly.
	Pairs [][2]int
}

// NewGenerator validates the parameters and seeds the process.
func NewGenerator(arrivalRate, meanHolding float64, pairs [][2]int, seed int64) (*Generator, error) {
	if arrivalRate <= 0 || math.IsNaN(arrivalRate) || math.IsInf(arrivalRate, 0) {
		return nil, fmt.Errorf("workload: invalid arrival rate %g", arrivalRate)
	}
	if meanHolding <= 0 || math.IsNaN(meanHolding) || math.IsInf(meanHolding, 0) {
		return nil, fmt.Errorf("workload: invalid mean holding %g", meanHolding)
	}
	if err := validatePairs(pairs); err != nil {
		return nil, err
	}
	return &Generator{
		rng:         rand.New(rand.NewSource(seed)),
		ArrivalRate: arrivalRate,
		MeanHolding: meanHolding,
		Pairs:       append([][2]int(nil), pairs...),
	}, nil
}

// OfferedLoad returns the offered load in Erlangs (λ/μ) across all
// pairs.
func (g *Generator) OfferedLoad() float64 { return g.ArrivalRate * g.MeanHolding }

// Generate produces all calls arriving in [0, horizon), sorted by
// arrival time: the PoissonSource stream on the generator's rng,
// collected. A horizon that is not positive and finite yields no calls.
func (g *Generator) Generate(horizon float64) []Call {
	src, err := NewPoissonSource(g.ArrivalRate, g.MeanHolding, g.Pairs, horizon, g.rng)
	if err != nil {
		return nil
	}
	return Collect(src)
}

// Collect drains a source into a call slice.
func Collect(src Source) []Call {
	var calls []Call
	for c, ok := src.Next(); ok; c, ok = src.Next() {
		calls = append(calls, c)
	}
	return calls
}

// Event is a call arrival or departure in a replayable schedule.
type Event struct {
	At    float64
	Start bool // true = arrival, false = departure
	Call  int  // index into the call slice
}

// Schedule flattens calls into a time-ordered arrival/departure event
// list for replay against an admission controller.
func Schedule(calls []Call) []Event {
	evs := make([]Event, 0, 2*len(calls))
	for i, c := range calls {
		evs = append(evs, Event{At: c.Arrive, Start: true, Call: i})
		evs = append(evs, Event{At: c.Arrive + c.Holding, Start: false, Call: i})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].At != evs[b].At {
			return evs[a].At < evs[b].At
		}
		// Departures before arrivals at identical timestamps frees
		// capacity first, matching real signaling.
		return !evs[a].Start && evs[b].Start
	})
	return evs
}

// ErlangB returns the Erlang-B blocking probability for offered load a
// (Erlangs) on c circuits, computed with the standard stable recursion
// B(0)=1, B(k) = a·B(k−1) / (k + a·B(k−1)).
func ErlangB(a float64, c int) (float64, error) {
	if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0, fmt.Errorf("workload: invalid offered load %g", a)
	}
	if c < 0 {
		return 0, fmt.Errorf("workload: negative circuit count %d", c)
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b, nil
}

// ErlangBCapacity returns the smallest circuit count whose Erlang-B
// blocking does not exceed target for offered load a.
func ErlangBCapacity(a, target float64) (int, error) {
	if !(target > 0 && target < 1) {
		return 0, fmt.Errorf("workload: target blocking %g out of (0,1)", target)
	}
	if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return 0, fmt.Errorf("workload: invalid offered load %g", a)
	}
	b := 1.0
	for k := 1; ; k++ {
		b = a * b / (float64(k) + a*b)
		if b <= target {
			return k, nil
		}
		if k > 1<<24 {
			return 0, fmt.Errorf("workload: capacity search overflow")
		}
	}
}

// BlockingStats accumulates measured admission outcomes.
type BlockingStats struct {
	Offered  int
	Admitted int
	Blocked  int
}

// Blocking returns the measured blocking probability.
func (s BlockingStats) Blocking() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(s.Offered)
}
