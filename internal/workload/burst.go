package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// MMPPConfig parameterizes a two-state Markov-modulated Poisson
// process (the standard on-off burst model): arrivals are Poisson at
// HighRate while the modulating chain sits in the high state and at
// LowRate in the low state, with exponentially distributed sojourns of
// mean MeanHigh / MeanLow seconds. LowRate = 0 gives a pure on-off
// (interrupted Poisson) process. With HighRate == LowRate the process
// degenerates to plain Poisson.
//
// Burstiness is controlled by the rate ratio and the sojourn times:
// the asymptotic index of dispersion of counts (IDC, variance-to-mean
// ratio of arrivals in long windows; 1 for Poisson) is
//
//	IDC = 1 + 2·p1·p0·(λ1−λ0)² / (λ̄·(q1+q0))
//
// where q1 = 1/MeanHigh, q0 = 1/MeanLow, p1 = q0/(q0+q1) is the
// stationary probability of the high state, and λ̄ the mean rate.
type MMPPConfig struct {
	HighRate float64 // calls/second in the high (burst) state, > 0
	LowRate  float64 // calls/second in the low state, >= 0
	MeanHigh float64 // mean burst duration, seconds, > 0
	MeanLow  float64 // mean gap duration, seconds, > 0
}

// Validate checks the process parameters.
func (c MMPPConfig) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if c.HighRate <= 0 || bad(c.HighRate) {
		return fmt.Errorf("workload: mmpp high rate %g must be positive and finite", c.HighRate)
	}
	if c.LowRate < 0 || bad(c.LowRate) {
		return fmt.Errorf("workload: mmpp low rate %g must be >= 0 and finite", c.LowRate)
	}
	if c.LowRate > c.HighRate {
		return fmt.Errorf("workload: mmpp low rate %g exceeds high rate %g", c.LowRate, c.HighRate)
	}
	if c.MeanHigh <= 0 || bad(c.MeanHigh) {
		return fmt.Errorf("workload: mmpp mean high sojourn %g must be positive and finite", c.MeanHigh)
	}
	if c.MeanLow <= 0 || bad(c.MeanLow) {
		return fmt.Errorf("workload: mmpp mean low sojourn %g must be positive and finite", c.MeanLow)
	}
	return nil
}

// probHigh is the stationary probability of the high state.
func (c MMPPConfig) probHigh() float64 {
	q1, q0 := 1/c.MeanHigh, 1/c.MeanLow
	return q0 / (q0 + q1)
}

// MeanRate returns the long-run arrival rate λ̄ in calls/second.
func (c MMPPConfig) MeanRate() float64 {
	p1 := c.probHigh()
	return p1*c.HighRate + (1-p1)*c.LowRate
}

// IDC returns the asymptotic index of dispersion of counts — the
// variance-to-mean ratio of the number of arrivals in long windows.
// Poisson traffic has IDC 1; bursty traffic exceeds it.
func (c MMPPConfig) IDC() float64 {
	p1 := c.probHigh()
	q1, q0 := 1/c.MeanHigh, 1/c.MeanLow
	d := c.HighRate - c.LowRate
	return 1 + 2*p1*(1-p1)*d*d/(c.MeanRate()*(q1+q0))
}

// InterarrivalCV returns the empirical coefficient of variation
// (stddev/mean) of the interarrival times of a sorted call sequence.
// Poisson traffic measures ≈ 1; bursty traffic exceeds it.
func InterarrivalCV(calls []Call) float64 {
	if len(calls) < 3 {
		return 0
	}
	n := len(calls) - 1
	var sum float64
	for i := 1; i < len(calls); i++ {
		sum += calls[i].Arrive - calls[i-1].Arrive
	}
	mean := sum / float64(n)
	if mean <= 0 {
		return 0
	}
	var ss float64
	for i := 1; i < len(calls); i++ {
		d := calls[i].Arrive - calls[i-1].Arrive - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// MixEntry is one traffic slice of a multi-tenant workload: calls
// assigned to it carry the class and tenant labels, drawn with
// probability Weight / ΣWeight.
type MixEntry struct {
	Class  string
	Tenant string
	Weight float64
}

// ApplyMix stamps each call with a (class, tenant) drawn from the
// weighted mix, deterministically under seed. The draw is independent
// of the arrival process so burst structure and tenant identity are
// uncorrelated (every tenant sees the same bursts, which is what makes
// per-tier reject ratios comparable).
func ApplyMix(calls []Call, mix []MixEntry, seed int64) error {
	if len(mix) == 0 {
		return fmt.Errorf("workload: empty mix")
	}
	total := 0.0
	for i, m := range mix {
		if m.Weight <= 0 || math.IsNaN(m.Weight) || math.IsInf(m.Weight, 0) {
			return fmt.Errorf("workload: mix[%d] weight %g must be positive and finite", i, m.Weight)
		}
		if m.Class == "" {
			return fmt.Errorf("workload: mix[%d] has no class", i)
		}
		total += m.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range calls {
		r := rng.Float64() * total
		k := 0
		for k < len(mix)-1 && r >= mix[k].Weight {
			r -= mix[k].Weight
			k++
		}
		calls[i].Class = mix[k].Class
		calls[i].Tenant = mix[k].Tenant
	}
	return nil
}

// TierAdmitter is the class- and tenant-aware admission interface the
// tiered replay drives; admission.Controller satisfies it via a tiny
// adapter in the caller.
type TierAdmitter interface {
	// TryAdmitTier attempts to admit a call for (class, tenant) and
	// returns an opaque handle.
	TryAdmitTier(class, tenant string, src, dst int) (handle uint64, ok bool)
	// Release tears the call down.
	Release(handle uint64)
}

// TierKey is the stats bucket for one call: the tenant when the mix
// set one, else the class — the axis admission policies discriminate
// on.
func (c Call) TierKey() string {
	if c.Tenant != "" {
		return c.Tenant
	}
	if c.Class != "" {
		return c.Class
	}
	return "default"
}

// Clocked is an optional TierAdmitter extension: when implemented,
// ReplayTiered calls Advance with each event's timestamp (seconds
// from the window start) before delivering it, so virtual-time
// policies — token-bucket refill, sampled load signals — march with
// the schedule instead of the wall clock.
type Clocked interface {
	Advance(now float64)
}

// ReplayTiered pushes the event schedule through a tier-aware admitter
// and returns overall blocking statistics plus a per-tier breakdown
// keyed by TierKey. Departure events for blocked calls are skipped,
// and calls still holding at the horizon are drained.
func ReplayTiered(events []Event, calls []Call, adm TierAdmitter) (BlockingStats, map[string]*BlockingStats) {
	var st BlockingStats
	tiers := make(map[string]*BlockingStats)
	handles := make(map[int]uint64, len(calls))
	clk, _ := adm.(Clocked)
	for _, ev := range events {
		if clk != nil {
			clk.Advance(ev.At)
		}
		c := calls[ev.Call]
		if ev.Start {
			key := c.TierKey()
			ts := tiers[key]
			if ts == nil {
				ts = &BlockingStats{}
				tiers[key] = ts
			}
			st.Offered++
			ts.Offered++
			if h, ok := adm.TryAdmitTier(c.Class, c.Tenant, c.Src, c.Dst); ok {
				st.Admitted++
				ts.Admitted++
				handles[ev.Call] = h
			} else {
				st.Blocked++
				ts.Blocked++
			}
			continue
		}
		if h, ok := handles[ev.Call]; ok {
			adm.Release(h)
			delete(handles, ev.Call)
		}
	}
	// Deterministic drain order keeps replays byte-identical run to run.
	rest := make([]int, 0, len(handles))
	for i := range handles {
		rest = append(rest, i)
	}
	sort.Ints(rest)
	for _, i := range rest {
		adm.Release(handles[i])
	}
	return st, tiers
}
