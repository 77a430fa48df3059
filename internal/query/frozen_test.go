package query

import (
	"math"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/index"
	"mrx/internal/partition"
	"mrx/internal/pathexpr"
)

// EvalFrozen must agree with EvalIndex — answers, precision, and the
// index-traversal part of the cost metric — across random graphs and
// workloads exercising rooted anchors, wildcards, and the descendant axis.
func TestEvalFrozenMatchesEvalIndex(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := gtest.Random(seed, 110, 6, 0.3)
		for _, k := range []int{0, 2} {
			ig := index.FromPartition(g, partition.KBisim(g, k), func(partition.BlockID) int { return k })
			fz := ig.Freeze()
			ws := gtest.RandomWorkload(seed+100, g, gtest.WorkloadOptions{
				Size: 30, MaxLen: 4, Adversarial: 0.2, Rooted: 0.2, Wildcard: 0.15, DescAxis: 0.15,
			})
			for _, w := range ws {
				e, err := pathexpr.Parse(w)
				if err != nil {
					t.Fatalf("parse %q: %v", w, err)
				}
				want := EvalIndex(ig, e)
				got := EvalFrozen(fz, e)
				if !equalGraphIDs(got.Answer, want.Answer) {
					t.Fatalf("seed %d k=%d %q: frozen answer %v, mutable %v",
						seed, k, w, got.Answer, want.Answer)
				}
				if got.Precise != want.Precise {
					t.Fatalf("seed %d k=%d %q: precise %v vs %v", seed, k, w, got.Precise, want.Precise)
				}
				if got.Cost.IndexNodes != want.Cost.IndexNodes {
					t.Fatalf("seed %d k=%d %q: index cost %d vs %d",
						seed, k, w, got.Cost.IndexNodes, want.Cost.IndexNodes)
				}
				if got.Count != len(got.Answer) {
					t.Fatalf("seed %d k=%d %q: Count %d, %d answers", seed, k, w, got.Count, len(got.Answer))
				}
				var cost Cost
				targets := TraverseFrozen(fz, e, &cost)
				if cost.IndexNodes != got.Cost.IndexNodes {
					t.Fatalf("seed %d k=%d %q: TraverseFrozen index cost %d, EvalFrozen %d",
						seed, k, w, cost.IndexNodes, got.Cost.IndexNodes)
				}
				if len(targets) != len(want.Targets) {
					t.Fatalf("seed %d k=%d %q: %d frozen targets vs %d mutable",
						seed, k, w, len(targets), len(want.Targets))
				}
				for i, v := range targets {
					if fz.Retired(v) != want.Targets[i].ID() {
						t.Fatalf("seed %d k=%d %q: target %d diverges", seed, k, w, i)
					}
				}
			}
		}
	}
}

// A frozen snapshot of the paper's Figure 1 under its label partition
// answers like the mutable index it was frozen from.
func TestFrozenQuerier(t *testing.T) {
	g := graph.PaperFigure1()
	ig := index.FromPartition(g, partition.ByLabel(g), func(partition.BlockID) int { return 0 })
	fz := ig.Freeze()
	e, err := pathexpr.Parse("//open_auction/bidder")
	if err != nil {
		t.Fatal(err)
	}
	want := EvalIndex(ig, e)
	got := EvalFrozen(fz, e)
	if !equalGraphIDs(got.Answer, want.Answer) {
		t.Fatalf("frozen answer %v, want %v", got.Answer, want.Answer)
	}
	if fz.NumNodes() != ig.NumNodes() {
		t.Error("frozen snapshot has the wrong node count")
	}
}

func TestMark(t *testing.T) {
	var m Mark
	m.Reset(4)
	if m.Seen(2) {
		t.Error("fresh round reports seen")
	}
	m.Set(2)
	if !m.Seen(2) || m.Seen(1) {
		t.Error("Set/Seen wrong within a round")
	}
	m.Next()
	if m.Seen(2) {
		t.Error("Next did not invalidate previous round")
	}
}

// A pooled Mark is reused across components of different sizes: growing it
// and shrinking it again must never expose a stamp of an earlier round.
func TestMarkResetAcrossSizes(t *testing.T) {
	var m Mark
	m.Reset(2)
	m.Set(1)
	m.Reset(8) // grows: a fresh array
	for v := index.FrozenID(0); v < 8; v++ {
		if m.Seen(v) {
			t.Fatalf("grown mark reports %d seen", v)
		}
	}
	m.Set(6)
	m.Reset(3) // shrinks within capacity: stamp 6 stays in the array
	m.Set(0)
	m.Reset(8) // and is exposed again, from an older round
	if m.Seen(6) || m.Seen(0) {
		t.Fatal("a stamp from an earlier round reads as seen after Reset")
	}
}

// The round counter is an int32. Before it wraps, Next clears every stamp,
// so a stamp written in an earlier cycle of rounds — here one written at
// round 1, which is the round the counter restarts from — never reads as
// Seen, including in the part of the array beyond the current size.
func TestMarkRoundWrap(t *testing.T) {
	var m Mark
	m.Reset(8)
	m.stamp[2] = 1 // stale: written at round 1, a whole cycle ago
	m.Reset(4)     // shrink: index 5 lies beyond the current size
	m.stamp[:8][5] = 1
	m.round = math.MaxInt32 - 1
	m.Set(0)
	m.Next() // MaxInt32
	m.Set(1)
	if !m.Seen(1) || m.Seen(0) {
		t.Fatal("Set/Seen wrong in the last round before the wrap")
	}
	m.Next() // wraps: round 1 again
	if m.round != 1 {
		t.Fatalf("round after wrap = %d, want 1", m.round)
	}
	for v := index.FrozenID(0); v < 4; v++ {
		if m.Seen(v) {
			t.Fatalf("stamp %d reads as seen after the wrap", v)
		}
	}
	for v, st := range m.stamp[:cap(m.stamp)] {
		if st != 0 {
			t.Fatalf("stamp %d = %d survived the wrap", v, st)
		}
	}
	m.Set(3)
	if !m.Seen(3) {
		t.Fatal("Set after the wrap not seen")
	}
}

func equalGraphIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
