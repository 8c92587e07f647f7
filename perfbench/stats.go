package main

import (
	"math"
	"sort"
	"time"
)

// reportedPercentiles are the percentiles a timing may be reported at,
// in hundredths of a percent.
var reportedPercentiles = []int{5000, 9000, 9900, 9990, 9999}

// beyond returns how many of n samples lie above the nearest-rank
// percentile p (in hundredths of a percent).
func beyond(n, p int) int {
	rank := (p*n + 9999) / 10000
	return n - rank
}

// tailPercentile returns the highest reported percentile (in percent)
// with at least ten of n samples beyond it, or 0 when not even the
// median has ten.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range reportedPercentiles {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return float64(best) / 100
}

// percentile returns the nearest-rank percentile p (in percent) of
// sorted values; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median returns the median of vs (the mean of the middle pair for an
// even count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// micros converts a duration to microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyOf returns the median over rounds of each round's p50 and p99
// of lat (one slice per round): a round hit by a noisy stretch of the
// host moves neither. ok reports whether every round's p99 has at least
// ten samples beyond it.
func latencyOf(lat [][]float64) (p50, p99 float64, ok bool) {
	ok = len(lat) > 0
	var p50s, p99s []float64
	for _, l := range lat {
		s := sortedCopy(l)
		p50s = append(p50s, percentile(s, 50))
		p99s = append(p99s, percentile(s, 99))
		ok = ok && tailPercentile(len(s)) >= 99
	}
	return median(p50s), median(p99s), ok
}
