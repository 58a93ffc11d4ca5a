package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"idyll/internal/sim"
)

// Histogram accumulates a latency distribution in power-of-two buckets, so
// experiments can report percentiles (the paper's figures report means; the
// tail behaviour of demand-miss latency under invalidation bursts is where
// the contention actually lives).
type Histogram struct {
	buckets []uint64 // bucket i counts samples in [2^i, 2^(i+1))
	count   uint64
	sum     sim.VTime
	max     sim.VTime
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, 40)}
}

// Add records one sample (negative samples are clamped to zero).
func (h *Histogram) Add(v sim.VTime) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v)) - 1 // floor(log2 v)
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the average sample.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max reports the largest sample.
func (h *Histogram) Max() sim.VTime { return h.max }

// Percentile reports an upper bound for the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing that rank. Bucketed storage makes
// this approximate within a factor of two, which is enough to compare
// schemes' tails.
func (h *Histogram) Percentile(p float64) sim.VTime {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			upper := sim.VTime(1) << uint(i+1)
			if upper > h.max && h.max > 0 {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// String renders the non-empty buckets for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.0f p50=%d p99=%d max=%d",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.max)
	return b.String()
}

// BucketCounts returns the non-empty buckets as (lowerBound, count) pairs
// in ascending order.
func (h *Histogram) BucketCounts() []BucketCount {
	var out []BucketCount
	for i, n := range h.buckets {
		if n > 0 {
			out = append(out, BucketCount{Lower: sim.VTime(1) << uint(i), Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lower < out[j].Lower })
	return out
}

// BucketCount is one histogram bucket.
type BucketCount struct {
	Lower sim.VTime
	Count uint64
}
