package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order: the rule must sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailRuleKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{21, 11, 100.0 * 11 / 21},
		{100, 90, 90},
		{250, 240, 96},
		{1000, 990, 99},
	} {
		tl := tailOf(seq(tc.n))
		if tl.Value != tc.value || math.Abs(tl.Percentile-tc.pct) > 1e-9 || tl.Beyond != tailBeyond || tl.Samples != tc.n {
			t.Errorf("n=%d: tail %+v, want value %g at p%g with %d beyond", tc.n, tl, tc.value, tc.pct, tailBeyond)
		}
		// Exactly tailBeyond samples lie strictly above the value.
		above := 0
		for _, x := range seq(tc.n) {
			if x > tl.Value {
				above++
			}
		}
		if above != tailBeyond {
			t.Errorf("n=%d: %d samples above the tail, want %d", tc.n, above, tailBeyond)
		}
	}
}

func TestTailRuleTooFewSamples(t *testing.T) {
	for _, n := range []int{1, 5, 10, 20} {
		tl := tailOf(seq(n))
		if tl.Value != float64(n) || tl.Percentile != 100 || tl.Beyond != 0 || tl.Samples != n {
			t.Errorf("n=%d: tail %+v, want the slowest sample at p100 with nothing beyond", n, tl)
		}
	}
	if tl := tailOf(nil); !math.IsNaN(tl.Value) {
		t.Errorf("empty tail %+v", tl)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}
