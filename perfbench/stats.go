package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for no samples. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// minBeyond is how many samples must lie above a reported percentile for it
// to be a measurement rather than a restatement of the maximum.
const minBeyond = 10

// highestSupported returns the highest of the candidate percentiles that has
// at least minBeyond of n samples beyond it, and false when none has.
func highestSupported(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
