package main

import (
	"math"
	"sort"
	"time"
)

// samples are raw client-side observations of one operation type. Every
// percentile the benchmark reports is computed from these, never from an
// obs histogram's buckets.
type samples []float64

// durations are the wall-clock times of one kind of operation, one entry
// per operation that succeeded.
type durations []time.Duration

// in returns the durations in the given unit, ascending.
func (ds durations) in(unit time.Duration) samples {
	out := make(samples, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

func (ds durations) total() (sum time.Duration) {
	for _, d := range ds {
		sum += d
	}
	return sum
}

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of an ascending sample set by
// linear interpolation between the two nearest ranks; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tailPercentile is the highest of the conventional percentiles that still
// has at least ten samples beyond it, or 0.5 when even p90 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

func median(v []float64) float64 { return samples(v).sorted().quantile(0.5) }

// ratio is a/b with an empty denominator reading as 0, so a metric that
// does not apply to a workload prints 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
