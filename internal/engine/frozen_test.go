package engine

import (
	"testing"

	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
)

// The engine must serve every query from a frozen view that is an exact
// flattening of the writer's index, across refinement generations, and
// reuse untouched frozen components between generations.
func TestEngineFrozenServing(t *testing.T) {
	g := gtest.RandomShallow(11, 160, 5)
	en := mustNew(t, g, Options{Parallelism: 2})

	if en.FrozenSnapshot() == nil {
		t.Fatal("no frozen snapshot at generation 0")
	}
	if err := en.FrozenSnapshot().CheckAgainst(en.Snapshot()); err != nil {
		t.Fatalf("generation 0: %v", err)
	}

	published := 0
	for _, w := range gtest.RandomWorkload(12, g, gtest.WorkloadOptions{Size: 25, MaxLen: 3}) {
		e, err := pathexpr.Parse(w)
		if err != nil {
			t.Fatal(err)
		}

		want := en.Eval(e)
		got := en.Query(e).Answer
		if len(got) != len(want) {
			t.Fatalf("%q: engine answer %v, ground truth %v", w, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: engine answer %v, ground truth %v", w, got, want)
			}
		}

		if e.HasWildcard() || e.RequiredK() == pathexpr.Unbounded {
			continue
		}
		prevFz, prevVersions := en.FrozenSnapshot(), en.Snapshot().Versions()
		if en.Support(e) {
			published++
			fz, ms := en.FrozenSnapshot(), en.Snapshot()
			if err := fz.CheckAgainst(ms); err != nil {
				t.Fatalf("%q: generation %d: %v", w, en.Generation(), err)
			}
			// Components whose version is unchanged must be carried over
			// from the previous frozen snapshot, not re-frozen.
			for i := 0; i < prevFz.NumComponents(); i++ {
				if ms.Component(i).Version() == prevVersions[i] &&
					fz.Component(i) != prevFz.Component(i) {
					t.Errorf("%q: component %d re-frozen although unchanged", w, i)
				}
			}
		}
	}
	if published == 0 {
		t.Fatal("workload triggered no publishes; test is vacuous")
	}
	if en.Generation() != uint64(published) {
		t.Errorf("generation %d after %d publishes", en.Generation(), published)
	}
}

// A FUP that is already precise, or whose refinement is capped into a
// no-op, must not publish a new generation (version-vector no-op check).
func TestEngineSkipsNoopPublish(t *testing.T) {
	g := gtest.RandomShallow(21, 120, 4)
	en := mustNew(t, g, Options{})

	var fup *pathexpr.Expr
	for _, w := range gtest.RandomWorkload(22, g, gtest.WorkloadOptions{Size: 20, MaxLen: 3}) {
		e, err := pathexpr.Parse(w)
		if err != nil {
			t.Fatal(err)
		}
		if !e.HasWildcard() && e.RequiredK() >= 1 && e.RequiredK() != pathexpr.Unbounded {
			fup = e
			break
		}
	}
	if fup == nil {
		t.Skip("no supportable FUP in workload")
	}
	if !en.Support(fup) {
		t.Skip("FUP already precise at I0")
	}
	gen := en.Generation()
	if en.Support(fup) {
		t.Error("supporting an already-supported FUP published a snapshot")
	}
	if en.Generation() != gen {
		t.Error("generation advanced on a skipped publish")
	}
}
