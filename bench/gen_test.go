package main

import (
	"testing"
	"time"
)

// goldenStreams pins each workload's request stream at seed 1: the hash of
// the text of its first round. A change here means the benchmark's inputs
// changed — the dataset generator, the pool generator, or this package's
// selection rules — and earlier results no longer compare.
var goldenStreams = map[string]string{
	"hot_fup":         "ed1594992e7ed24f",
	"cold_validate":   "6ab5ead5a309aea6",
	"sharded_scatter": "7b97d0c9d68cb84e",
	"drift_refine":    "f1b4c5f4b4a94e71",
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-scale datasets")
	}
	for _, sp := range specs {
		a, err := prepare(sp, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		n := a.seq.round
		if got := a.hash(n); got != goldenStreams[sp.name] {
			t.Errorf("%s: stream hash %s at seed 1, golden %s", sp.name, got, goldenStreams[sp.name])
		}
		again, err := prepare(sp, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if a.hash(3*n) != again.hash(3*n) {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		b, err := prepare(sp, 2)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if a.hash(n) == b.hash(n) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", sp.name)
		}
		// Whatever the seed, a round is the same multiset of queries.
		ca, cb := make([]int, len(a.queries)), make([]int, len(b.queries))
		for i := 0; i < n; i++ {
			ca[a.seq.at(int64(i))]++
			cb[b.seq.at(int64(i))]++
		}
		for id := range ca {
			if ca[id] != cb[id] {
				t.Errorf("%s: query %s occurs %d times per round at seed 1, %d at seed 2", sp.name, a.queries[id], ca[id], cb[id])
				break
			}
		}
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(16, hotRound)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Errorf("rank %d is requested more often (%d) than rank %d (%d)", i, n, i-1, c[i-1])
		}
	}
	if sum != hotRound {
		t.Errorf("counts sum to %d, want %d", sum, hotRound)
	}
	if c[0] < 2*c[1]-2 || c[0] > 2*c[1]+2 {
		t.Errorf("rank 0 (%d) should be about twice rank 1 (%d)", c[0], c[1])
	}
}

// TestGateIssuesWholeRounds checks that a timed gate admits whole rounds
// only, and none once the deadline has passed.
func TestGateIssuesWholeRounds(t *testing.T) {
	g := &gate{round: 7, dur: time.Hour, bounds: []time.Time{time.Now()}}
	for i := int64(0); i < 20; i++ {
		if !g.admit(i) {
			t.Fatalf("request %d refused before the deadline", i)
		}
	}
	if got := g.approved.Load(); got != 3 {
		t.Errorf("%d rounds approved after 20 requests of 7 per round, want 3", got)
	}
	g.dur = 0 // the deadline has passed
	admitted := 20
	for i := int64(20); i < 100; i++ {
		if g.admit(i) {
			admitted++
		}
	}
	if admitted != 21 {
		t.Errorf("%d requests admitted, want the 3 approved rounds of 7", admitted)
	}
	fixed := &gate{end: 10}
	if !fixed.admit(9) || fixed.admit(10) {
		t.Error("a fixed gate must admit exactly the indexes below its end")
	}
}
