package main

import (
	"math/bits"
)

// hist is a log-linear histogram of non-negative int64 samples
// (nanoseconds here): each power-of-two range is split into histSub
// equal sub-buckets, so a reported quantile is within 1/histSub
// (< 1 %) of the true sample. telemetry.Histogram's power-of-two
// buckets would report every quantile as a bucket edge (262.144 µs,
// 1.048576 ms); the benchmark never takes quantiles from it.
//
// A hist is not safe for concurrent use: each load-generator goroutine
// owns one per slice and the results are merged afterwards.
type hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per power of two
	// histBuckets covers the whole non-negative int64 range.
	histBuckets = (64 - histSubBits) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

// bucketIndex maps a sample to its bucket: values below histSub map to
// themselves (exact), larger values keep their top histSubBits+1 bits.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	shift := bits.Len64(u) - (histSubBits + 1)
	return (shift+1)*histSub + int(u>>uint(shift)) - histSub
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i)
	}
	shift := i/histSub - 1
	top := uint64(i%histSub + histSub)
	lo = int64(top << uint(shift))
	hi = lo + int64(1)<<uint(shift) - 1
	return lo, hi
}

func (h *hist) record(v int64) {
	h.counts[bucketIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) count() uint64 { return h.n }

// quantile returns the q-quantile (0 < q <= 1) as the midpoint of the
// bucket holding the ceil(q*n)-th smallest sample; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			if hi > h.max {
				hi = h.max
			}
			return (float64(lo) + float64(hi)) / 2
		}
	}
	return float64(h.max)
}

// tailQuantiles are the percentiles highest() chooses from.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// highest returns the highest percentile of tailQuantiles that still
// has at least ten samples beyond it, and its value. A percentile with
// fewer samples above it is one outlier's position, not a property of
// the system. ok is false when even the median has fewer than ten.
func (h *hist) highest() (q, value float64, ok bool) {
	for i := len(tailQuantiles) - 1; i >= 0; i-- {
		tq := tailQuantiles[i]
		if float64(h.n)*(1-tq) >= 10 {
			return tq, h.quantile(tq), true
		}
	}
	return 0, 0, false
}
