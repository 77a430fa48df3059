package shard

import (
	"bytes"
	"fmt"
	"testing"

	"mrx/internal/core"
	"mrx/internal/gtest"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// refState is State's write side as it stood while every Refine deep-copied
// the published M*(k): its Refine ladder — Clone, Refine the clone,
// UnchangedSince, FreezeReusing against the published index — is kept
// verbatim, but for the version-vector form of the last two, as the
// differential oracle for the in-place Refine that replaced it. A no-op
// refinement throws its clone away, registry entry and all.
type refState struct {
	gen uint64
	ms  *core.MStar
	fz  *core.FrozenMStar
}

func (st *refState) Refine(e *pathexpr.Expr, opt query.ValidateOpts) bool {
	if st.ms.HasFUP(e) {
		return false
	}
	res, _ := st.fz.QueryOpts(e, opt)
	if res.Precise {
		return false
	}
	base := st.ms.Versions()
	clone := st.ms.Clone()
	clone.Refine(e, res.Answer)
	if clone.UnchangedSince(base) {
		return false
	}
	fz := clone.FreezeReusing(base, st.fz)
	st.gen, st.ms, st.fz = st.gen+1, clone, fz
	return true
}

func (st *refState) Retire(e *pathexpr.Expr) bool {
	rebuilt, ok := st.ms.Retire(e)
	if !ok {
		return false
	}
	st.gen, st.ms, st.fz = st.gen+1, rebuilt, rebuilt.Freeze()
	return true
}

func encode(t *testing.T, fz *core.FrozenMStar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mmapstore.Write(&buf, fz, mmapstore.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fupKeys(fups []*pathexpr.Expr) string {
	keys := make([]string, len(fups))
	for i, e := range fups {
		keys[i] = pathexpr.Canonical(e)
	}
	return fmt.Sprint(keys)
}

// Refining the writer's index in place must walk the same lifecycle as the
// clone-based oracle: after every Refine and Retire the same verdict, the
// same generation, the same FUP registry and a byte-identical encoded
// snapshot. Every Refine is followed by a Retire of the same expression, so
// a no-op that left its FUP registered would publish a rebuild the oracle
// never does. The run must take every no-op rung: an already-precise
// answer, a registry hit, a MaxK-capped refinement and a descendant-axis
// FUP.
func TestRefineMatchesCloneOracle(t *testing.T) {
	hits := map[string]int{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, maxK := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("seed%d/maxk%d", seed, maxK), func(t *testing.T) {
				checkRefineAgainstOracle(t, seed, maxK, hits)
			})
		}
	}
	for _, rung := range []string{"precise", "registry hit", "capped no-op", "descendant axis", "published", "retired"} {
		if hits[rung] == 0 {
			t.Errorf("no step took the %s rung; the test is vacuous there", rung)
		}
	}
}

func checkRefineAgainstOracle(t *testing.T, seed int64, maxK int, hits map[string]int) {
	g := gtest.New(seed, gtest.Options{Nodes: 300, Labels: 5, RefProb: 0.12, Components: 2})
	sh := mustPartition(t, g, 1)[0]
	opts := core.MStarOptions{MaxK: maxK}
	st := NewState(sh, opts)
	st.FreezeInitial()
	ms := core.NewMStarOpts(sh.Local(), opts)
	ref := &refState{ms: ms, fz: ms.Freeze()}
	opt := query.ValidateOpts{}

	var exprs []*pathexpr.Expr
	for _, w := range gtest.RandomWorkload(seed+10, g, gtest.WorkloadOptions{Size: 30, MaxLen: 4, DescAxis: 0.15}) {
		if e := mustParse(t, w); !e.HasWildcard() {
			exprs = append(exprs, e)
		}
	}

	step := 0
	compare := func(op string, e *pathexpr.Expr, got, want bool) {
		t.Helper()
		step++
		if got != want {
			t.Fatalf("step %d %s %s: published %v, oracle %v", step, op, e, got, want)
		}
		snap := st.Snapshot()
		if snap.Gen != ref.gen {
			t.Fatalf("step %d %s %s: generation %d, oracle %d", step, op, e, snap.Gen, ref.gen)
		}
		if fups, want := fupKeys(st.SupportedFUPs()), fupKeys(ref.ms.SupportedFUPs()); fups != want {
			t.Fatalf("step %d %s %s: supported FUPs %s, oracle %s", step, op, e, fups, want)
		}
		if !bytes.Equal(encode(t, snap.FZ), encode(t, ref.fz)) {
			t.Fatalf("step %d %s %s: snapshot differs from the oracle's", step, op, e)
		}
	}
	refine := func(e *pathexpr.Expr) {
		res, _ := ref.fz.QueryOpts(e, opt)
		rung := ""
		switch {
		case ref.ms.HasFUP(e):
			rung = "registry hit"
		case res.Precise:
			rung = "precise"
		case e.HasDescendantStep():
			rung = "descendant axis"
		}
		got, want := st.Refine(e, opt), ref.Refine(e, opt)
		switch {
		case want:
			rung = "published"
		case rung == "" && maxK > 0 && e.RequiredK() > maxK:
			rung = "capped no-op"
		}
		hits[rung]++
		compare("Refine", e, got, want)
	}
	retire := func(e *pathexpr.Expr) {
		got, want := st.Retire(e), ref.Retire(e)
		if want {
			hits["retired"]++
		}
		compare("Retire", e, got, want)
	}

	// Every Refine is followed by a Retire of the same expression, then the
	// expression is refined again so the index keeps growing; a second pass
	// hits the registry.
	for _, e := range exprs {
		refine(e)
		retire(e)
		refine(e)
	}
	for i, e := range exprs {
		refine(e)
		if i%3 == 0 {
			retire(e)
		}
	}
}
