package index

import (
	"slices"
	"strings"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/partition"
)

func freezeChecked(t *testing.T, ig *Graph) *Frozen {
	t.Helper()
	fz := ig.Freeze()
	if err := fz.CheckAgainst(ig); err != nil {
		t.Fatalf("CheckAgainst after Freeze: %v", err)
	}
	return fz
}

func TestFreezeBasics(t *testing.T) {
	g := graph.PaperFigure1()
	ig := a0(g)
	fz := freezeChecked(t, ig)

	if fz.NumNodes() != ig.NumNodes() || fz.NumEdges() != ig.NumEdges() {
		t.Fatalf("frozen %d/%d nodes/edges, mutable %d/%d",
			fz.NumNodes(), fz.NumEdges(), ig.NumNodes(), ig.NumEdges())
	}
	if fz.Label(fz.Root()) != ig.Root().Label() {
		t.Error("root label diverges")
	}
	for v := 0; v < fz.NumNodes(); v++ {
		id := FrozenID(v)
		ext := fz.Extent(id)
		if len(ext) != fz.Size(id) {
			t.Fatalf("node %d: Size %d but extent %v", v, fz.Size(id), ext)
		}
		for i := 1; i < len(ext); i++ {
			if ext[i-1] >= ext[i] {
				t.Fatalf("node %d extent not strictly ascending: %v", v, ext)
			}
		}
		for _, o := range ext {
			if fz.NodeOf(o) != id {
				t.Fatalf("NodeOf(%d)=%d, want %d", o, fz.NodeOf(o), id)
			}
		}
	}
	person, _ := g.LabelIDOf("person")
	if got, want := fz.CountLabel(person), ig.CountLabel(person); got != want {
		t.Errorf("CountLabel(person)=%d, mutable %d", got, want)
	}
	st, mt := fz.ComputeStats(), ig.ComputeStats()
	if st != mt {
		t.Errorf("stats diverge: frozen %+v mutable %+v", st, mt)
	}
}

func TestFreezeAfterSplits(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := gtest.Random(seed, 120, 6, 0.3)
		ig := FromPartition(g, partition.KBisim(g, 2), func(partition.BlockID) int { return 2 })
		freezeChecked(t, ig)
	}
}

// A published Frozen must stay valid however its source graph is refined
// afterwards: freezing copies extents, it never aliases them.
func TestFrozenIndependentOfLaterSplits(t *testing.T) {
	g := graph.PaperFigure3()
	ig := a0(g)
	fz := ig.Freeze()
	var before strings.Builder
	if err := fz.WriteDOT(&before, "x", 16); err != nil {
		t.Fatal(err)
	}

	b, _ := g.LabelIDOf("b")
	bn := ig.NodesWithLabel(b)[0]
	ext := bn.Extent()
	ig.Split(bn, [][]graph.NodeID{ext[:2], ext[2:]}, []int{1, 1})

	var after strings.Builder
	if err := fz.WriteDOT(&after, "x", 16); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Error("frozen snapshot changed after source graph was split")
	}
	if err := fz.CheckAgainst(ig); err == nil {
		t.Error("CheckAgainst should fail against the mutated source")
	}
	if err := ig.Freeze().CheckAgainst(ig); err != nil {
		t.Errorf("re-freeze after split: %v", err)
	}
}

func TestThawRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := gtest.Random(seed, 80, 5, 0.25)
		ig := FromPartition(g, partition.KBisim(g, 2), func(partition.BlockID) int { return 2 })
		fz := freezeChecked(t, ig)
		th := fz.Thaw()
		if err := th.Validate(true); err != nil {
			t.Fatalf("seed %d: thawed graph invalid: %v", seed, err)
		}
		// Thaw renumbers densely, so its own freeze must match the original
		// snapshot node for node.
		if err := th.Freeze().CheckAgainst(th); err != nil {
			t.Fatalf("seed %d: refreeze of thaw: %v", seed, err)
		}
		if th.NumNodes() != fz.NumNodes() || th.NumEdges() != fz.NumEdges() {
			t.Fatalf("seed %d: thaw size diverges", seed)
		}
	}
}

func equalFrozenIDs(a, b []FrozenID) bool {
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

func TestCheckP3(t *testing.T) {
	g := graph.PaperFigure1()
	ig := a0(g)
	a := freezeChecked(t, ig).Arrays()
	// Raise one non-root node's k to 5: its parent keeps k=0 < 5-1.
	a.Ks = slices.Clone(a.Ks)
	a.Ks[len(a.Ks)-1] = 5
	if a.ExtentArena[a.ExtentStart[len(a.Ks)-1]] == ig.Root().Extent()[0] {
		t.Fatal("the last frozen node is the root")
	}
	fz, err := FrozenFromArrays(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := fz.CheckP3(); err == nil {
		t.Error("P3 violation not detected")
	}
}

func TestVersionSemantics(t *testing.T) {
	g := graph.PaperFigure3()
	ig := a0(g)
	v0 := ig.Version()

	b, _ := g.LabelIDOf("b")
	bn := ig.NodesWithLabel(b)[0]
	ig.SetK(bn, bn.K()) // no-op: k unchanged
	if ig.Version() != v0 {
		t.Error("no-op SetK bumped the version")
	}
	ig.SetK(bn, bn.K()+1)
	if ig.Version() == v0 {
		t.Error("SetK change did not bump the version")
	}
	v1 := ig.Version()

	ext := bn.Extent()
	ig.Split(bn, [][]graph.NodeID{ext[:3], ext[3:]}, []int{1, 1})
	if ig.Version() <= v1 {
		t.Error("Split did not bump the version")
	}

	cl := ig.Clone()
	if cl.Version() != ig.Version() {
		t.Error("Clone did not preserve the version")
	}
	if got := ig.Freeze().SourceVersion(); got != ig.Version() {
		t.Errorf("SourceVersion=%d, graph at %d", got, ig.Version())
	}
}

// Two identical build sequences must produce byte-identical DOT output, and
// the frozen snapshot's DOT must match its source graph's — the public
// enumeration determinism the frozen read path guarantees by construction.
func TestDOTDeterminism(t *testing.T) {
	build := func(seed int64) (*Graph, string) {
		g := gtest.Random(seed, 90, 6, 0.3)
		ig := FromPartition(g, partition.KBisim(g, 2), func(partition.BlockID) int { return 2 })
		var sb strings.Builder
		if err := ig.WriteDOT(&sb, "d", 8); err != nil {
			t.Fatal(err)
		}
		return ig, sb.String()
	}
	for seed := int64(0); seed < 3; seed++ {
		ig1, dot1 := build(seed)
		_, dot2 := build(seed)
		if dot1 != dot2 {
			t.Fatalf("seed %d: two identical builds render different DOT", seed)
		}
		var fdot strings.Builder
		if err := ig1.Freeze().WriteDOT(&fdot, "d", 8); err != nil {
			t.Fatal(err)
		}
		if fdot.String() != dot1 {
			t.Fatalf("seed %d: frozen DOT differs from mutable DOT", seed)
		}
		var cdot strings.Builder
		if err := ig1.Clone().WriteDOT(&cdot, "d", 8); err != nil {
			t.Fatal(err)
		}
		if cdot.String() != dot1 {
			t.Fatalf("seed %d: clone DOT differs from original", seed)
		}
	}
}
