package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank p-th percentile (0 when empty, so a run
// whose requests all failed still prints a result).
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), p)-1]
}

// median is the middle value, or the mean of the two middle values.
func (d dist) median() float64 {
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// tail returns the highest percentile of xs with minBeyond samples
// beyond it, and its value: the (minBeyond+1)-th largest sample, at
// percentile 100·(n−minBeyond)/n. With no more than minBeyond samples it
// returns the maximum, at p100.
func tail(xs []float64) (v, p float64) {
	d := newDist(xs)
	n := len(d)
	if n <= minBeyond {
		return d.pct(100), 100
	}
	return d[n-minBeyond-1], 100 * float64(n-minBeyond) / float64(n)
}
