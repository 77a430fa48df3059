package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a fixed-memory log-linear latency histogram over nanoseconds:
// values below 128 ns get one bucket each, and every octave above that is
// split into 64 equal sub-buckets, so a reported quantile — interpolated
// inside its bucket, and therefore not stuck on a grid of midpoints — is
// within 1/64 ≈ 1.6 % of the true sample. Memory is constant (histBuckets
// counters) however many samples are recorded, so heap_mb is not polluted
// by sample storage. A hist is not safe for concurrent use; each client
// owns its own and they are merged after the phase.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 6 // 64 sub-buckets per octave
	histSub     = 1 << histSubBits
	// histMaxShift covers values up to 2^40 ns (~18 min); larger samples
	// clamp into the last bucket.
	histMaxShift = 33
	histBuckets  = 2*histSub + histMaxShift*histSub
)

func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - (histSubBits + 1)
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return 2*histSub + (shift-1)*histSub + int(v>>uint(shift)) - histSub
}

// histBounds returns the lowest value of bucket i and the bucket's width,
// in nanoseconds.
func histBounds(i int) (lower, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	i -= 2 * histSub
	shift := uint(i/histSub + 1)
	return float64(uint64(histSub+i%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (0 when the histogram is
// empty): the bucket holding the nearest-rank sample, interpolated by the
// sample's rank inside it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := math.Ceil(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lower, width := histBounds(i)
			return lower + width*(rank-cum-0.5)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}
