package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (nearest rank) of xs; +Inf samples — failed
// operations — sort last, so enough failures surface in the tail. It sorts a
// copy and returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantiles is the ungated percentile ladder printed beside the gated ones.
func quantiles(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for name, q := range map[string]float64{"p10": 0.10, "p25": 0.25, "p50": 0.50, "p75": 0.75, "p90": 0.90, "p95": 0.95, "p99": 0.99, "max": 1} {
		if v := quantile(xs, q); !math.IsInf(v, 0) {
			out[name] = v
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// timeMedian calls fn until both minReps calls and the time budget are spent
// (one untimed call first) and returns the median seconds per call.
func timeMedian(budget time.Duration, minReps int, fn func()) float64 {
	fn()
	var samples []float64
	start := time.Now()
	for len(samples) < minReps || time.Since(start) < budget {
		t := time.Now()
		fn()
		samples = append(samples, time.Since(t).Seconds())
		if len(samples) >= 10000 {
			break
		}
	}
	return median(samples)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
