package main

import (
	"math"
	"sort"
)

// summary is how every repeated measurement is reported: the value that
// stands for the run, and the median, quartiles and count of the samples.
type summary struct {
	Value          float64
	Median, Q1, Q3 float64
	N              int
}

// quantile returns the q-quantile (0 <= q <= 1) of already sorted samples,
// interpolating linearly between the two nearest ranks, so the median of an
// even count is the mean of the middle pair. Samples are kept exactly — no
// bucketing — which is what lets two runs agree within a few percent.
func quantile(sorted []float64, q float64) float64 {
	switch n := len(sorted); {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	default:
		h := q * float64(n-1)
		lo := math.Floor(h)
		i := int(lo)
		if i >= n-1 {
			return sorted[n-1]
		}
		return sorted[i] + (h-lo)*(sorted[i+1]-sorted[i])
	}
}

// summarize sorts a copy of the samples and reports their median.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	sum.Value = sum.Median
	return sum
}

// fastRate and fastTime summarize repeats of identical work by the quartile
// on the fast side: the upper quartile of rates, the lower quartile of
// times. The repeats differ only by what else the host was doing, and that
// only ever slows one down, in bursts that last many repeats; the fast
// quartile stays put until three quarters of a run are disturbed, the median
// only until half is. Resampling runs from 313 recorded repeats of one
// tree_narrow call on the shared 2-core box, the spread between ten runs
// was 4 % with the fast quartile against 8 % with the median, and beyond
// 25 % in 6 % of the sets against 14 %.
func fastRate(samples []float64) summary {
	sum := summarize(samples)
	sum.Value = sum.Q3
	return sum
}

func fastTime(samples []float64) summary {
	sum := summarize(samples)
	sum.Value = sum.Q1
	return sum
}

func median(samples []float64) float64 { return summarize(samples).Median }

// constantN is the summary of a quantity measured once over n operations.
func constantN(v float64, n int) summary { return summary{Value: v, Median: v, Q1: v, Q3: v, N: n} }

// tailQuantile returns the q-quantile only when at least ten samples lie
// beyond it; a percentile resting on fewer is noise and is reported as 0.
func tailQuantile(sorted []float64, q float64) float64 {
	if float64(len(sorted))*(1-q) < 10-1e-9 { // 100 samples resolve p90 despite rounding
		return 0
	}
	return quantile(sorted, q)
}
