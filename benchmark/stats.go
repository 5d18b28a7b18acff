package main

import "sort"

// median returns the middle value of vs (mean of the two middle values
// for an even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minMax returns the smallest and largest value of vs.
func minMax(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// mean returns the arithmetic mean of vs.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// percentileIndex is the repository's percentile convention
// (metrics.CommitLatencyStats): element ⌊n·p/100⌋ of the sorted sample.
func percentileIndex(n int, p float64) int {
	i := int(float64(n) * p / 100)
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one outlier's position.
const tailBeyond = 10

// tailIndex returns the index of the tail sample of a sorted sample of
// size n and the percentile it stands for: p99 when at least tailBeyond
// samples lie beyond it, else the highest percentile that has that many
// beyond it, and the median for samples too small for either.
func tailIndex(n int) (idx int, pct float64) {
	if n == 0 {
		return 0, 0
	}
	idx = percentileIndex(n, 99)
	if most := n - 1 - tailBeyond; idx > most {
		idx = most
	}
	if mid := percentileIndex(n, 50); idx < mid {
		idx = mid
	}
	return idx, 100 * float64(idx) / float64(n)
}

// latencySummary is the three latency figures every workload reports.
type latencySummary struct {
	N               int
	P50, Tail, Mean float64
	TailPct         float64
}

// summarize sorts vs in place and reports its median, tail and mean.
func summarize(vs []float64) latencySummary {
	sort.Float64s(vs)
	s := latencySummary{N: len(vs), Mean: mean(vs)}
	if len(vs) == 0 {
		return s
	}
	s.P50 = vs[percentileIndex(len(vs), 50)]
	ti, pct := tailIndex(len(vs))
	s.Tail, s.TailPct = vs[ti], pct
	return s
}
