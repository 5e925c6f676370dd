package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample that still has at least
// tailBeyond samples above it.
type tail struct {
	// Value is the sample at that rank; Percentile the rank as a
	// percentage of Samples; Beyond the number of samples above it.
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailOf applies the tail rule: sort the samples and report the one
// with exactly tailBeyond samples above it, as the percentile
// 100*(n-tailBeyond)/n. With 2*tailBeyond or fewer samples that rank
// would not lie above the median, so the slowest sample is reported
// instead, as percentile 100 with nothing beyond it, and the caller can
// tell the rule did not apply.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 2*tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	i := n - tailBeyond - 1
	return tail{
		Value:      s[i],
		Percentile: 100 * float64(i+1) / float64(n),
		Samples:    n,
		Beyond:     n - 1 - i,
	}
}
