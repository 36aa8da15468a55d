package traffic

import (
	"fmt"
	"math"
)

// LeakyBucket describes source traffic policed by a leaky bucket with
// burst size Burst (bits) and average rate Rate (bits/second). Per
// Section 3 of the paper, the traffic a source emits over any interval of
// length I is bounded by min(C·I, Burst + Rate·I) where C is the capacity
// of the access link.
type LeakyBucket struct {
	Burst float64 // T in the paper, bits
	Rate  float64 // ρ in the paper, bits/second
}

// Validate checks the bucket parameters.
func (lb LeakyBucket) Validate() error {
	if lb.Burst < 0 || math.IsNaN(lb.Burst) || math.IsInf(lb.Burst, 0) {
		return fmt.Errorf("traffic: invalid burst %g", lb.Burst)
	}
	if lb.Rate <= 0 || math.IsNaN(lb.Rate) || math.IsInf(lb.Rate, 0) {
		return fmt.Errorf("traffic: invalid rate %g", lb.Rate)
	}
	return nil
}

// Conform reports whether transmitting amount bits over an interval of
// length dt seconds keeps the source within its envelope when the bucket
// currently holds tokens token bits (capacity Burst, refill Rate).
// It is used by the simulator's policers.
func (lb LeakyBucket) Conform(tokens, dt, amount float64) (newTokens float64, ok bool) {
	t := math.Min(lb.Burst, tokens+lb.Rate*dt)
	if amount > t {
		return t, false
	}
	return t - amount, true
}
