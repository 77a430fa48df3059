package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/workload"
)

// descendScan is the frozen descend as it was before the subnode links were
// stored: every data node of every frontier extent is looked up in the fine
// component. It is the oracle TestDescendMatchesExtentScan compares the link
// walk against.
func descendScan(dst []index.FrozenID, seen *query.Mark, frontier []index.FrozenID, coarse, fine *index.Frozen) []index.FrozenID {
	seen.Reset(fine.NumNodes())
	for _, u := range frontier {
		for _, o := range coarse.Extent(u) {
			n := fine.NodeOf(o)
			if !seen.Seen(n) {
				seen.Set(n)
				dst = append(dst, n)
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// TestDescendMatchesExtentScan checks the link walk against the extent scan
// after every Support, on random trees, DAGs and cyclic graphs and on XMark
// and NASA with generated FUPs: for every pair of components from ≤ to,
// every single-node frontier and a few random ones (in random order, as
// top-down hands them over) must descend to the same sorted subnodes. It
// also checks the links themselves — every fine node listed exactly once,
// under the coarse node owning its extent — on the incrementally re-frozen
// view and on both loader assemblies of its components.
func TestDescendMatchesExtentScan(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		fups []*pathexpr.Expr
	}
	var inputs []input
	shapes := []gtest.Shape{gtest.Tree, gtest.DAG, gtest.Cyclic}
	for seed := int64(0); seed < 12; seed++ {
		g := gtest.New(seed, gtest.Options{
			Nodes: 60 + int(seed)*10, Labels: 4 + int(seed%3), RefProb: 0.2,
			Shape: shapes[seed%3], Components: 1 + int(seed%4),
		})
		var fups []*pathexpr.Expr
		for _, w := range gtest.RandomWorkload(seed+100, g, gtest.WorkloadOptions{Size: 10, MaxLen: 4}) {
			if e := mustParse(w); !e.HasWildcard() && e.RequiredK() != pathexpr.Unbounded {
				fups = append(fups, e)
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("gtest%d", seed), g, fups})
	}
	wo := workload.Options{NumQueries: 20, MaxPathLen: 6, MaxQueryLen: 4, Seed: 3}
	xmark, nasa := datagen.XMarkGraph(0.1, 1), datagen.NASAGraph(0.1, 1)
	inputs = append(inputs,
		input{"xmark", xmark, workload.Generate(xmark, wo)},
		input{"nasa", nasa, workload.Generate(nasa, wo)})

	maxComps := 0
	for k, in := range inputs {
		rng := rand.New(rand.NewSource(int64(k)))
		ms := NewMStar(in.g)
		fz := ms.Freeze()
		for step, e := range in.fups {
			base := ms.Versions()
			ms.Support(e)
			fz = ms.FreezeReusing(base, fz)
			where := fmt.Sprintf("%s after Support %d (%s)", in.name, step, e)
			checkLinksExact(t, where, fz)
			checkDescents(t, where, fz, rng)
		}
		maxComps = max(maxComps, fz.NumComponents())
		comps := make([]*index.Frozen, fz.NumComponents())
		for i := range comps {
			comps[i] = fz.Component(i)
		}
		for _, verify := range []bool{true, false} {
			re, err := AssembleFrozenMStar(in.g, comps, fz.Options(), verify)
			if err != nil {
				t.Fatalf("%s: assemble (verify=%v): %v", in.name, verify, err)
			}
			if !slices.EqualFunc(re.links, fz.links, func(a, b subLinks) bool {
				return slices.Equal(a.start, b.start) && slices.Equal(a.subs, b.subs)
			}) {
				t.Fatalf("%s: assembled links (verify=%v) differ from the frozen ones", in.name, verify)
			}
		}
	}
	if maxComps < 4 {
		t.Fatalf("inputs refine to at most %d components, want descents across 3 levels", maxComps)
	}
}

// checkLinksExact checks that every fine node appears exactly once in the
// links of its pair, under the coarse node owning its extent.
func checkLinksExact(t *testing.T, where string, fz *FrozenMStar) {
	t.Helper()
	for i, l := range fz.links {
		coarse, fine := fz.comps[i], fz.comps[i+1]
		count := make([]int, fine.NumNodes())
		for u := range index.FrozenID(coarse.NumNodes()) {
			for _, f := range l.of(u) {
				count[f]++
				if owner := coarse.NodeOf(fine.Extent(f)[0]); owner != u {
					t.Fatalf("%s: I%d node %d listed under I%d node %d, owned by %d", where, i+1, f, i, u, owner)
				}
			}
		}
		for f, c := range count {
			if c != 1 {
				t.Fatalf("%s: I%d node %d listed %d times", where, i+1, f, c)
			}
		}
	}
}

// checkDescents compares descend with descendScan for every pair from ≤ to.
func checkDescents(t *testing.T, where string, fz *FrozenMStar, rng *rand.Rand) {
	t.Helper()
	var seen query.Mark
	var cur, spare []index.FrozenID
	try := func(frontier []index.FrozenID, from, to int) {
		want := descendScan(nil, &seen, frontier, fz.comps[from], fz.comps[to])
		cur = append(cur[:0], frontier...)
		got, _ := fz.descend(cur, spare, from, to)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: descend %v from I%d to I%d: %v, extent scan %v", where, frontier, from, to, got, want)
		}
	}
	for from := range fz.NumComponents() {
		n := fz.comps[from].NumNodes()
		for to := from; to < fz.NumComponents(); to++ {
			for u := range index.FrozenID(n) {
				try([]index.FrozenID{u}, from, to)
			}
			for range 4 {
				perm := rng.Perm(n)[:1+rng.Intn(n)]
				frontier := make([]index.FrozenID, len(perm))
				for i, u := range perm {
					frontier[i] = index.FrozenID(u)
				}
				if from == to {
					// A zero-level descent returns its frontier, which
					// its caller has sorted.
					slices.Sort(frontier)
				}
				try(frontier, from, to)
			}
		}
	}
}
