package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistErrorBound checks every reported quantile against the exact
// nearest-rank quantile of the sorted samples, over 1 µs – 10 s.
func TestHistErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 200000
	samples := make([]float64, n)
	var h hist
	lo, hi := math.Log(1e3), math.Log(1e10)
	for i := range samples {
		v := time.Duration(math.Exp(lo + r.Float64()*(hi-lo)))
		samples[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := samples[int(math.Ceil(q*n))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Errorf("q=%v: got %.0f, exact %.0f, relative error %.4f > 0.02", q, got, exact, rel)
		}
	}
	if histSub < 32 {
		t.Errorf("%d sub-buckets per octave, want >= 32", histSub)
	}
	// Quantiles are interpolated, not snapped to bucket midpoints: nearby
	// distributions must not read exactly the same.
	var a, b hist
	for i := 0; i < 1000; i++ {
		a.record(time.Duration(70000 + i))
		b.record(time.Duration(70010 + i))
	}
	if a.quantile(0.5) == b.quantile(0.5) {
		t.Errorf("two different distributions in one bucket both read %v", a.quantile(0.5))
	}
}

// TestHistBucketsContiguous checks that bucket indexes are monotone and
// that every value lies within its bucket's relative error of the midpoint.
func TestHistBucketsContiguous(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<20; v++ {
		b := histBucket(v)
		if b != prev && b != prev+1 {
			t.Fatalf("value %d: bucket %d after %d", v, b, prev)
		}
		prev = b
		lower, width := histBounds(b)
		if float64(v) < lower || float64(v) >= lower+width {
			t.Fatalf("value %d: outside its bucket [%.0f, %.0f)", v, lower, lower+width)
		}
		if v >= 2*histSub && width/lower > 1.0/64 {
			t.Fatalf("value %d: bucket [%.0f, %.0f) is wider than 1/64 of its values", v, lower, lower+width)
		}
	}
	if b := histBucket(math.MaxUint64); b != histBuckets-1 {
		t.Errorf("huge value lands in bucket %d, want the last (%d)", b, histBuckets-1)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Microsecond
		if i%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
		all.record(d)
	}
	a.merge(&b)
	if a != all {
		t.Error("merged histogram differs from the one recorded directly")
	}
}
