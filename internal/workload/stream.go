package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Source is a streaming call generator: Next yields arrivals one at a
// time in nondecreasing arrival order until the horizon, so a consumer
// can replay millions of lifetimes without materializing the whole
// call slice. Sources take an explicit *rand.Rand — the caller owns
// the run's seed discipline, nothing touches global rand. The batch
// Generate methods collect a source on the generator's rng, so a source
// and a generator built from the same seed produce identical streams
// (property-tested in stream_test.go).
type Source interface {
	// Next returns the next call, or ok=false once the horizon is
	// reached. After the first false, every call returns false.
	Next() (Call, bool)
	// OfferedLoad returns the long-run offered load in Erlangs.
	OfferedLoad() float64
}

// validatePairs is the shared pair-set check of every generator.
func validatePairs(pairs [][2]int) error {
	if len(pairs) == 0 {
		return fmt.Errorf("workload: no pairs")
	}
	for _, p := range pairs {
		if p[0] == p[1] {
			return fmt.Errorf("workload: self pair %v", p)
		}
	}
	return nil
}

// PoissonSource streams the Poisson call process of Generator.
// Construct with NewPoissonSource.
type PoissonSource struct {
	rng         *rand.Rand
	rate        float64
	meanHolding float64
	pairs       [][2]int
	horizon     float64
	t           float64
	done        bool
}

// NewPoissonSource validates the parameters and prepares the stream.
// The rng is used for every stochastic choice and is not reseeded.
func NewPoissonSource(arrivalRate, meanHolding float64, pairs [][2]int, horizon float64, rng *rand.Rand) (*PoissonSource, error) {
	if arrivalRate <= 0 || math.IsNaN(arrivalRate) || math.IsInf(arrivalRate, 0) {
		return nil, fmt.Errorf("workload: invalid arrival rate %g", arrivalRate)
	}
	if meanHolding <= 0 || math.IsNaN(meanHolding) || math.IsInf(meanHolding, 0) {
		return nil, fmt.Errorf("workload: invalid mean holding %g", meanHolding)
	}
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("workload: invalid horizon %g", horizon)
	}
	if err := validatePairs(pairs); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	return &PoissonSource{
		rng: rng, rate: arrivalRate, meanHolding: meanHolding,
		pairs: append([][2]int(nil), pairs...), horizon: horizon,
	}, nil
}

// OfferedLoad returns the offered load in Erlangs (λ/μ).
func (s *PoissonSource) OfferedLoad() float64 { return s.rate * s.meanHolding }

// Next returns the next arrival, drawing interarrival, pair, holding.
func (s *PoissonSource) Next() (Call, bool) {
	if s.done {
		return Call{}, false
	}
	s.t += s.rng.ExpFloat64() / s.rate
	if s.t >= s.horizon {
		s.done = true
		return Call{}, false
	}
	p := s.pairs[s.rng.Intn(len(s.pairs))]
	return Call{
		Arrive:  s.t,
		Holding: s.rng.ExpFloat64() * s.meanHolding,
		Src:     p[0],
		Dst:     p[1],
	}, true
}

// MMPPSource streams the two-state MMPP/on-off call process that an
// MMPPConfig describes. Construct with NewMMPPSource.
type MMPPSource struct {
	rng         *rand.Rand
	cfg         MMPPConfig
	meanHolding float64
	pairs       [][2]int
	horizon     float64

	t        float64
	high     bool
	stateEnd float64
	started  bool
	done     bool
}

// NewMMPPSource validates the parameters and prepares the stream. The
// modulating chain starts in its stationary distribution.
func NewMMPPSource(cfg MMPPConfig, meanHolding float64, pairs [][2]int, horizon float64, rng *rand.Rand) (*MMPPSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if meanHolding <= 0 || math.IsNaN(meanHolding) || math.IsInf(meanHolding, 0) {
		return nil, fmt.Errorf("workload: invalid mean holding %g", meanHolding)
	}
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("workload: invalid horizon %g", horizon)
	}
	if err := validatePairs(pairs); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: nil rng")
	}
	return &MMPPSource{
		rng: rng, cfg: cfg, meanHolding: meanHolding,
		pairs: append([][2]int(nil), pairs...), horizon: horizon,
	}, nil
}

// OfferedLoad returns the long-run offered load in Erlangs (λ̄/μ).
func (s *MMPPSource) OfferedLoad() float64 { return s.cfg.MeanRate() * s.meanHolding }

// Next returns the next arrival, rolling the modulating chain forward
// between candidate arrivals.
func (s *MMPPSource) Next() (Call, bool) {
	if s.done {
		return Call{}, false
	}
	if !s.started {
		s.started = true
		s.high = s.rng.Float64() < s.cfg.probHigh()
		s.stateEnd = s.t + s.sojourn()
	}
	for s.t < s.horizon {
		rate := s.cfg.LowRate
		if s.high {
			rate = s.cfg.HighRate
		}
		var next float64
		if rate > 0 {
			next = s.t + s.rng.ExpFloat64()/rate
		} else {
			next = math.Inf(1) // silent state: jump straight to the flip
		}
		if next >= s.stateEnd {
			// The state flips before the candidate arrival fires. The
			// exponential's memorylessness lets us discard the candidate
			// and redraw at the new rate from the flip instant.
			s.t = s.stateEnd
			s.high = !s.high
			s.stateEnd = s.t + s.sojourn()
			continue
		}
		s.t = next
		if s.t >= s.horizon {
			break
		}
		p := s.pairs[s.rng.Intn(len(s.pairs))]
		return Call{
			Arrive:  s.t,
			Holding: s.rng.ExpFloat64() * s.meanHolding,
			Src:     p[0],
			Dst:     p[1],
		}, true
	}
	s.done = true
	return Call{}, false
}

// sojourn draws one state-holding time for the current state.
func (s *MMPPSource) sojourn() float64 {
	if s.high {
		return s.rng.ExpFloat64() * s.cfg.MeanHigh
	}
	return s.rng.ExpFloat64() * s.cfg.MeanLow
}
