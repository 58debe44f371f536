package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spread returns max(xs) - min(xs).
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[len(s)-1] - s[0]
}

// tailLadder lists the percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it (nearest-rank), or ok=false when
// n is too small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// nearestRank is the 1-based rank of percentile p among n samples. The
// epsilon keeps a decimal p like 99.9 from rounding an exact rank up.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(p, len(s))-1]
}

// summary is a timing reported by the percentile rule: the median, the
// highest percentile with at least ten samples beyond it, and the count.
type summary struct {
	n       int
	median  float64
	tailPct float64 // 0 when there are too few samples for a tail
	tail    float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs), median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.tailPct, s.tail = p, percentile(xs, p)
	}
	return s
}
