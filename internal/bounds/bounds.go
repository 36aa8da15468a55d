// Package bounds implements Theorem 4 of the paper: closed-form lower and
// upper bounds on α*, the maximum utilization assignable to the real-time
// class in any network of diameter L with N input links per router,
// leaky-bucket traffic (T, ρ) and end-to-end deadline D.
//
// The printed formulas in the paper are typographically damaged; the
// forms below are re-derived from the paper's own proof sketches
// (Section 5.3.2) and reproduce Table 1 exactly (0.30 and 0.61 for the
// VoIP scenario):
//
//	Lower: with β = D·ρ / (L·T + (L−1)·D·ρ),   α_LB = N·β / (N−1+β).
//	Upper: with x = (D·ρ/T + 1)^(1/L) − 1,     α_UB = N·x / (N−1+x).
//
// Derivations. Per Theorem 3, every server obeys d = g·(T + ρY) with
// g = α(N−1)/(ρ(N−α)). For the lower bound, shortest-path routing keeps
// every path within L hops, so Y ≤ (L−1)·d for the uniform worst server
// delay d; solving d = g(T + ρ(L−1)d) and requiring L·d ≤ D yields
// g·ρ ≤ β, i.e. α(N−1)/(N−α) ≤ β. For the upper bound, the most
// favorable (feedback-free) routing gives the per-hop recursion
// d_k = g(T + ρ·Σ_{j<k} d_j), whose end-to-end sum over L hops is
// (T/ρ)((1+gρ)^L − 1); requiring it to stay within D yields
// g·ρ ≤ (Dρ/T + 1)^(1/L) − 1. Both conditions invert to
// α = N·v/(N−1+v) for the respective v.
package bounds

import (
	"fmt"
	"math"
)

// Params carries the topology-independent quantities Theorem 4 needs.
type Params struct {
	N        int     // input links per router (≥ 2)
	L        int     // network diameter in hops (≥ 1)
	Burst    float64 // T, bits
	Rate     float64 // ρ, bits/second
	Deadline float64 // D, seconds
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("bounds: N = %d, need >= 2", p.N)
	}
	if p.L < 1 {
		return fmt.Errorf("bounds: L = %d, need >= 1", p.L)
	}
	if p.Burst < 0 || math.IsNaN(p.Burst) || math.IsInf(p.Burst, 0) {
		return fmt.Errorf("bounds: invalid burst %g", p.Burst)
	}
	if p.Rate <= 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
		return fmt.Errorf("bounds: invalid rate %g", p.Rate)
	}
	if p.Deadline <= 0 || math.IsNaN(p.Deadline) || math.IsInf(p.Deadline, 0) {
		return fmt.Errorf("bounds: invalid deadline %g", p.Deadline)
	}
	return nil
}

// alphaFromGainRho inverts g·ρ = v, i.e. α(N−1)/(N−α) = v, to
// α = N·v / (N−1+v), clamped to [0, 1).
func alphaFromGainRho(v float64, n int) float64 {
	if v <= 0 {
		return 0
	}
	a := float64(n) * v / (float64(n) - 1 + v)
	if a >= 1 {
		return 1
	}
	return a
}

// Lower returns the Theorem 4 lower bound on α*: any utilization not
// exceeding it admits a safe route selection (shortest-path routing
// suffices) in every topology with the given N and L.
func Lower(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	beta := p.Deadline * p.Rate /
		(float64(p.L)*p.Burst + float64(p.L-1)*p.Deadline*p.Rate)
	return alphaFromGainRho(beta, p.N), nil
}

// Upper returns the Theorem 4 upper bound on α*: beyond it no route
// selection can meet the deadline on a diameter-length path even with
// feedback-free routing.
func Upper(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Burst == 0 {
		// No burst: the per-hop recursion contributes no delay growth and
		// the deadline never binds; the assignment is limited only by
		// stability.
		return 1, nil
	}
	x := math.Pow(p.Deadline*p.Rate/p.Burst+1, 1/float64(p.L)) - 1
	return alphaFromGainRho(x, p.N), nil
}

// Bounds returns (lower, upper) together.
func Bounds(p Params) (lower, upper float64, err error) {
	if lower, err = Lower(p); err != nil {
		return 0, 0, err
	}
	if upper, err = Upper(p); err != nil {
		return 0, 0, err
	}
	return lower, upper, nil
}
