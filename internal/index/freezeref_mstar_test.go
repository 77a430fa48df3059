package index_test

import (
	"testing"

	"mrx/internal/core"
	"mrx/internal/gtest"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
)

// Every component of an M*(k)-index freezes to the sorting oracle's arrays
// after each Support of a random workload: REFINE* and PROMOTE' splits,
// propagated to the finer components, leave no adjacency the sort-free
// Freeze orders differently.
func TestMStarFreezeMatchesSortingOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := gtest.New(seed, gtest.Options{Nodes: 200, Labels: 5, RefProb: 0.15, Components: 1 + int(seed%3)})
		ms := core.NewMStar(g)
		for _, w := range gtest.RandomWorkload(seed+7, g, gtest.WorkloadOptions{Size: 16, MaxLen: 4, Rooted: 0.1}) {
			e, err := pathexpr.Parse(w)
			if err != nil {
				t.Fatalf("parse %q: %v", w, err)
			}
			ms.Support(e)
			for i := 0; i < ms.NumComponents(); i++ {
				if err := index.CheckFreezeMatchesOracle(ms.Component(i)); err != nil {
					t.Fatalf("seed %d after Support(%s), component I%d: %v", seed, w, i, err)
				}
			}
		}
		if ms.NumComponents() < 3 {
			t.Fatalf("seed %d: workload grew only %d components", seed, ms.NumComponents())
		}
	}
}
