package core

import (
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// Every frozen evaluation strategy must return the answers of its mutable
// counterpart, across refinement rounds that grow the component hierarchy.
// Bottom-up and hybrid are not ported to the frozen read path; their frozen
// dispatch serves top-down, which must still produce identical answers (the
// strategies differ only in traversal cost).
func TestFrozenStrategiesMatchMutable(t *testing.T) {
	strategies := []Strategy{
		StrategyNaive, StrategyTopDown, StrategySubpath,
		StrategyBottomUp, StrategyHybrid, StrategyAuto,
	}
	for seed := int64(0); seed < 4; seed++ {
		g := gtest.Random(seed, 100, 6, 0.3)
		ws := gtest.RandomWorkload(seed+50, g, gtest.WorkloadOptions{
			Size: 24, MaxLen: 4, Adversarial: 0.2, Rooted: 0.15, Wildcard: 0.1, DescAxis: 0.1,
		})
		exprs := make([]*pathexpr.Expr, len(ws))
		for i, w := range ws {
			e, err := pathexpr.Parse(w)
			if err != nil {
				t.Fatalf("parse %q: %v", w, err)
			}
			exprs[i] = e
		}
		for _, strat := range strategies {
			ms := NewMStarOpts(g, MStarOptions{Strategy: strat})
			fz := ms.Freeze()
			for round := 0; round < 3; round++ {
				for _, e := range exprs {
					want, _ := ms.QueryOpts(e, query.ValidateOpts{})
					got, _ := fz.QueryOpts(e, query.ValidateOpts{})
					if !sameAnswer(got.Answer, want.Answer) {
						t.Fatalf("seed %d strategy %s round %d %q: frozen %v, mutable %v",
							seed, strat, round, e, got.Answer, want.Answer)
					}
				}
				// Refine with a supportable expression, then re-freeze
				// incrementally and re-verify the flattening.
				for _, e := range exprs {
					if e.HasWildcard() || e.RequiredK() == pathexpr.Unbounded || e.RequiredK() <= round {
						continue
					}
					res, _ := fz.QueryOpts(e, query.ValidateOpts{})
					base := ms.Versions()
					ms.Refine(e, res.Answer)
					fz = ms.FreezeReusing(base, fz)
					break
				}
				if err := fz.CheckAgainst(ms); err != nil {
					t.Fatalf("seed %d strategy %s round %d: %v", seed, strat, round, err)
				}
			}
		}
	}
}

// FreezeReusing must share untouched components with the base snapshot and
// re-freeze only dirtied ones, and refining in place must leave the base
// snapshot an exact flattening of the index as it was when frozen.
func TestFreezeReusingShares(t *testing.T) {
	g := gtest.RandomShallow(7, 150, 5)
	ms := NewMStar(g)
	ws := gtest.RandomWorkload(8, g, gtest.WorkloadOptions{Size: 20, MaxLen: 3})
	fz := ms.Freeze()
	for _, w := range ws {
		e, err := pathexpr.Parse(w)
		if err != nil {
			t.Fatal(err)
		}
		if e.HasWildcard() || e.RequiredK() == pathexpr.Unbounded {
			continue
		}
		res, _ := fz.QueryOpts(e, query.ValidateOpts{})
		before, base := ms.Clone(), ms.Versions()
		ms.Refine(e, res.Answer)
		nfz := ms.FreezeReusing(base, fz)
		for i := 0; i < nfz.NumComponents() && i < fz.NumComponents(); i++ {
			same := nfz.Component(i) == fz.Component(i)
			unchanged := ms.Component(i).Version() == base[i]
			if same != unchanged {
				t.Fatalf("%q component %d: shared=%v but version-unchanged=%v", w, i, same, unchanged)
			}
		}
		if err := nfz.CheckAgainst(ms); err != nil {
			t.Fatalf("%q: %v", w, err)
		}
		if err := fz.CheckAgainst(before); err != nil {
			t.Fatalf("%q: refining in place changed the previous frozen view: %v", w, err)
		}
		fz = nfz
	}
	if ms.NumComponents() < 2 {
		t.Fatal("workload never grew the hierarchy; test is vacuous")
	}
}

func TestUnchangedSince(t *testing.T) {
	g := gtest.RandomShallow(3, 120, 4)
	ms := NewMStar(g)
	base := ms.Versions()
	if !ms.UnchangedSince(base) {
		t.Error("untouched index reported changed")
	}

	var fup *pathexpr.Expr
	for _, w := range gtest.RandomWorkload(4, g, gtest.WorkloadOptions{Size: 20, MaxLen: 3}) {
		e, err := pathexpr.Parse(w)
		if err != nil {
			t.Fatal(err)
		}
		if !e.HasWildcard() && e.RequiredK() >= 1 && e.RequiredK() != pathexpr.Unbounded {
			res := ms.Query(e)
			if !res.Precise {
				fup = e
				break
			}
		}
	}
	if fup == nil {
		t.Skip("no imprecise FUP in workload")
	}
	ms.Support(fup)
	if ms.UnchangedSince(base) {
		t.Error("refinement left version vector unchanged")
	}
}

func TestFrozenAccessors(t *testing.T) {
	g := graph.PaperFigure1()
	ms := NewMStarOpts(g, MStarOptions{Strategy: StrategyAuto})
	fm := ms.Freeze()
	if fm.Data() != g {
		t.Error("Data diverges")
	}
	if fm.NumComponents() != ms.NumComponents() {
		t.Error("component count diverges")
	}
	if fm.Options().Strategy != StrategyAuto {
		t.Error("options not carried over")
	}
	if err := fm.Component(0).CheckAgainst(ms.Component(0)); err != nil {
		t.Error(err)
	}
}

func sameAnswer(a, b []graph.NodeID) bool {
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
