package main

import "math"

// rng is a splitmix64 stream. It is cheap to seed, so every generated
// request gets a stream of its own keyed by (seed, stream, index).
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64, i int) rng {
	r := rng{s: uint64(seed)}
	r.s = r.next() ^ stream*0xd1b54a32d192ed03 ^ uint64(i)*0x8cb92ba72f3d8dd7
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int {
	return lo + int(r.next()%uint64(hi-lo+1))
}

// unit returns a uniform float in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.unit()) }

func (r *rng) tokens(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.next() % vocab)
	}
	return out
}
