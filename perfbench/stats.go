package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond the reported tail, so
// that the tail rests on more than a handful of operations.
const minBeyond = 10

// tailGroupOps is the fewest ops a tail group holds.
const tailGroupOps = 1000

// groupedTail is op_tail_ms. The ops, in run order, are split into
// consecutive groups of whole passes holding at least tailGroupOps ops
// each, the last group taking any remainder; a run too short for two
// groups is one group. The result is the median over the groups of
// each group's tail, with the first group's percentile and size.
// Long runs of short ops thus report a tail that one disturbed stretch
// of host time does not move.
func groupedTail(opMs []float64, passOps int) (pct, ms float64, groups, groupOps int) {
	groupOps = passOps * ((tailGroupOps + passOps - 1) / passOps)
	groups = len(opMs) / groupOps
	if groups < 2 {
		groups, groupOps = 1, len(opMs)
	}
	tails := make([]float64, groups)
	for g := range tails {
		end := (g + 1) * groupOps
		if g == groups-1 {
			end = len(opMs)
		}
		s := append([]float64(nil), opMs[g*groupOps:end]...)
		sort.Float64s(s)
		p, v := tail(s)
		if g == 0 {
			pct = p
		}
		tails[g] = v
	}
	return pct, median(tails), groups, groupOps
}

// tail returns the highest candidate percentile that has at least
// minBeyond samples above its nearest-rank sample, with that sample.
// When no candidate qualifies (fewer than minBeyond+1 samples) it
// falls back to the median. sorted must be in ascending order and
// non-empty.
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		r := rank(p, n)
		if n-r >= minBeyond {
			return p, sorted[r-1]
		}
	}
	return 50, sorted[rank(50, n)-1]
}

// rank is the 1-based nearest-rank index of percentile p among n
// samples. The tolerance absorbs binary rounding of p/100*n, which
// would otherwise put p99.9 of 10000 samples at rank 9991.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// median of a non-empty slice; the input is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
