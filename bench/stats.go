package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle two for an even
// count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest of tailPercentiles that still has at
// least ten samples beyond it among n samples, and false when even the median
// does not (n < 20).
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-6 { // 100-99.9 is not exactly 0.1
			best, ok = p, true
		}
	}
	return best, ok
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of its median — the steadiness rule of compare/repeat. The
// quartiles follow Python's statistics.quantiles(xs, n=4) (exclusive method),
// so the number matches what the driver computes. Zero for fewer than two
// values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		// Exclusive method, as CPython writes it: rank k(n+1)/4 on a 1-based
		// scale, clamped to [1, n-1], the remainder taken after the clamp
		// (so two or three values extrapolate).
		j := min(max(k*(len(s)+1)/4, 1), len(s)-1)
		delta := k*(len(s)+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
