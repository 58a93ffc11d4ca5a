package stats

import (
	"testing"
	"testing/quick"

	"idyll/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Latency
	for _, v := range []sim.VTime{1, 2, 4, 8, 1000} {
		h.Add(v)
	}
	if h.Count != 5 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Mean() != 203 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max != 1000 {
		t.Fatalf("max = %d", h.Max)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Latency
	for i := 0; i < 99; i++ {
		h.Add(10)
	}
	h.Add(100000)
	p50 := h.Percentile(50)
	if p50 < 10 || p50 > 16 {
		t.Fatalf("p50 = %d, want ≈10..16", p50)
	}
	p100 := h.Percentile(100)
	if p100 != 100000 {
		t.Fatalf("p100 = %d, want the max", p100)
	}
	if h.Percentile(99) > p100 {
		t.Fatal("p99 exceeds p100")
	}
}

func TestHistogramEmptyIsZero(t *testing.T) {
	var h Latency
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Max != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Latency
	h.Add(-5)
	if h.Count != 1 || h.Sum != 0 || h.Max != 0 || h.buckets[0] != 1 {
		t.Fatal("negative sample mishandled")
	}
}

func TestHistogramBucketCounts(t *testing.T) {
	var h Latency
	h.Add(3) // bucket [2,4)
	h.Add(3)
	h.Add(100) // bucket [64,128)
	var want [latencyBuckets]uint64
	want[1], want[6] = 2, 1
	if h.buckets != want {
		t.Fatalf("buckets = %v, want %v", h.buckets, want)
	}
}

// TestHistogramBucketEdges: each sample lands in bucket floor(log2 v),
// checked at both edges of every bucket (and 0 in the first), with the
// samples past the last bucket clamped into it.
func TestHistogramBucketEdges(t *testing.T) {
	var h Latency
	want := make([]uint64, len(h.buckets))
	add := func(v sim.VTime, b int) {
		h.Add(v)
		want[min(b, len(want)-1)]++
	}
	add(0, 0)
	for b := 0; b < 63; b++ {
		add(sim.VTime(1)<<b, b)
		add(sim.VTime(1)<<(b+1)-1, b)
	}
	for b, n := range want {
		if h.buckets[b] != n {
			t.Fatalf("bucket %d holds %d samples, want %d", b, h.buckets[b], n)
		}
	}
}

// Properties: percentiles are monotone in p, and every percentile upper
// bound is ≥ the true value's bucket lower bound.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Latency
		for _, v := range raw {
			h.Add(sim.VTime(v))
		}
		prev := sim.VTime(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) >= sim.VTime(maxOf(raw))/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func maxOf(vs []uint16) uint16 {
	m := uint16(0)
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
