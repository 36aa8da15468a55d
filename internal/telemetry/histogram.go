package telemetry

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets spans 1 ns to 2^39 ns (~550 s) in power-of-two buckets —
// far beyond any admission decision or fixed-point solve. Larger
// observations clamp into the last finite bucket.
const histBuckets = 40

// Histogram counts duration observations in fixed power-of-two
// nanosecond buckets. An observation is two atomic adds (its bucket and
// the sum) and a load of the maximum — safe for the admission hot path
// — and never allocates. The observation count is not kept: it is the
// sum of the buckets, which is what the exposition reports as _count.
// The exposition maps bucket k to the Prometheus upper bound le = 2^k
// ns (in seconds).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
}

func newHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a nanosecond value to its bucket: 0 → 0, and values in
// [2^(k−1), 2^k) → k, so every value in bucket k is < 2^k ns.
func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration — what n calls
// of Observe(d) would leave behind, for the price of one.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(n)
	h.sumNS.Add(ns * int64(n))
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for b := range h.buckets {
		n += h.buckets[b].Load()
	}
	return n
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sumNS.Load()) / n)
}

// Quantile returns an upper estimate of the p-quantile (p in [0,1]) at
// bucket resolution: the upper edge 2^k ns of the bucket holding the
// target rank (within 2x of the true value), clamped to Max. Zero when
// empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(p * float64(n))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			edge := time.Duration(int64(1) << uint(b))
			if max := h.Max(); edge > max {
				edge = max
			}
			return edge
		}
	}
	return h.Max()
}

// writePrometheus renders the histogram as cumulative _bucket series
// plus _sum and _count, with bucket bounds in seconds. Extra labels
// (already rendered as {k="v"}) are merged with le.
func (h *Histogram) writePrometheus(b *strings.Builder, name, labels string) {
	le := func(bound string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", bound)
		}
		return strings.TrimSuffix(labels, "}") + fmt.Sprintf(",le=%q}", bound)
	}
	var cum uint64
	for k := 0; k < histBuckets; k++ {
		cum += h.buckets[k].Load()
		bound := formatFloat(float64(int64(1)<<uint(k)) / 1e9)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, le(bound), cum)
	}
	// All observations land in finite buckets, so cum is the count; using
	// it for +Inf and _count keeps the series monotone even mid-update.
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, le("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.sumNS.Load())/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
}
