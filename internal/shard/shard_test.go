package shard

import (
	"bytes"
	"testing"

	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/store"
)

func mustParse(t *testing.T, s string) *pathexpr.Expr {
	t.Helper()
	e, err := pathexpr.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return e
}

func mustPartition(t *testing.T, g *graph.Graph, n int) []*Shard {
	t.Helper()
	shards, err := Partition(g, n)
	if err != nil {
		t.Fatalf("Partition(%d): %v", n, err)
	}
	return shards
}

// Partition must cover every node exactly once, keep shard-local node sets
// sorted, preserve labels through the shared table, and put the root at
// (shard 0, local node 0).
func TestPartitionCoversExactly(t *testing.T) {
	g := gtest.New(7, gtest.Options{Nodes: 400, Labels: 8, RefProb: 0.1, Components: 9})
	for _, n := range []int{1, 2, 4, 8, 100} {
		shards := mustPartition(t, g, n)
		if len(shards) < 1 {
			t.Fatalf("n=%d: no shards", n)
		}
		if n <= 9 && len(shards) > n {
			t.Fatalf("n=%d: %d shards", n, len(shards))
		}
		seen := make([]bool, g.NumNodes())
		total := 0
		for si, sh := range shards {
			if sh.ID() != si {
				t.Fatalf("shard %d reports ID %d", si, sh.ID())
			}
			if sh.NumNodes() != sh.Local().NumNodes() {
				t.Fatalf("shard %d: inconsistent sizes", si)
			}
			for i := 0; i < sh.NumNodes(); i++ {
				v := sh.ToGlobal(graph.NodeID(i))
				if i > 0 && sh.ToGlobal(graph.NodeID(i-1)) >= v {
					t.Fatalf("shard %d: global IDs not ascending", si)
				}
				if seen[v] {
					t.Fatalf("node %d owned twice", v)
				}
				seen[v] = true
				if sh.Local().NodeLabelName(graph.NodeID(i)) != g.NodeLabelName(v) {
					t.Fatalf("shard %d node %d: label mismatch", si, i)
				}
			}
			total += sh.NumNodes()
		}
		if total != g.NumNodes() {
			t.Fatalf("n=%d: covered %d of %d nodes", n, total, g.NumNodes())
		}
		if !shards[0].HasRoot() || shards[0].ToGlobal(0) != 0 {
			t.Fatalf("n=%d: root not at (shard 0, local 0)", n)
		}
		for _, sh := range shards[1:] {
			if sh.HasRoot() {
				t.Fatalf("n=%d: two shards claim the root", n)
			}
		}
	}
}

// The same (graph, n) must partition identically every time.
func TestPartitionDeterministic(t *testing.T) {
	g, err := datagen.CorpusGraph(0.05, 3, 6)
	if err != nil {
		t.Fatalf("CorpusGraph: %v", err)
	}
	a := mustPartition(t, g, 4)
	b := mustPartition(t, g, 4)
	if len(a) != len(b) {
		t.Fatalf("shard counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].NumNodes() != b[i].NumNodes() {
			t.Fatalf("shard %d sizes differ", i)
		}
		for j := 0; j < a[i].NumNodes(); j++ {
			if v := graph.NodeID(j); a[i].ToGlobal(v) != b[i].ToGlobal(v) {
				t.Fatalf("shard %d node sets differ at %d", i, j)
			}
		}
	}
}

// A partition that clamps to one shard returns the graph itself: the same
// *graph.Graph, identity ids, the root, and every label of the graph.
func TestPartitionWholeGraph(t *testing.T) {
	multi := gtest.New(13, gtest.Options{Nodes: 300, Labels: 6, RefProb: 0.1, Components: 4})
	single := gtest.New(14, gtest.Options{Nodes: 300, Labels: 6, RefProb: 0.1, Components: 1})
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		n    int
	}{
		{"asked for one", multi, 1},
		{"one component", single, 4},
	} {
		shards := mustPartition(t, tc.g, tc.n)
		if len(shards) != 1 {
			t.Fatalf("%s: %d shards, want 1", tc.name, len(shards))
		}
		sh := shards[0]
		if sh.Local() != tc.g {
			t.Fatalf("%s: Local() is a copy, want the graph itself", tc.name)
		}
		if sh.ID() != 0 || !sh.HasRoot() || sh.NumNodes() != tc.g.NumNodes() {
			t.Fatalf("%s: id %d, root %v, %d of %d nodes", tc.name, sh.ID(), sh.HasRoot(), sh.NumNodes(), tc.g.NumNodes())
		}
		if want := len(tc.g.WeakComponents()); sh.Components() != want {
			t.Fatalf("%s: %d components, want %d", tc.name, sh.Components(), want)
		}
		for v := 0; v < tc.g.NumNodes(); v++ {
			if got := sh.ToGlobal(graph.NodeID(v)); got != graph.NodeID(v) {
				t.Fatalf("%s: ToGlobal(%d) = %d", tc.name, v, got)
			}
		}
		for l := 0; l < tc.g.NumLabels(); l++ {
			name := tc.g.LabelName(graph.LabelID(l))
			if !sh.Covers(mustParse(t, name)) {
				t.Fatalf("%s: whole-graph shard does not cover label %q", tc.name, name)
			}
		}
		if !sh.Covers(mustParse(t, "/"+tc.g.NodeLabelName(0))) {
			t.Fatalf("%s: whole-graph shard does not cover the rooted root label", tc.name)
		}
	}
}

// A component at least as large as the average shard is placed by load, so
// one dominating component cannot drag small ones onto its shard when
// emptier shards exist.
func TestPartitionSpreadsLargeComponents(t *testing.T) {
	// Two large components (60 nodes each) and two small ones, 4 shards:
	// each large component must be alone on its shard.
	b := graph.NewBuilder()
	addChain := func(n int) graph.NodeID {
		first := graph.NodeID(b.NumNodes())
		b.AddNode("h")
		for i := 1; i < n; i++ {
			b.AddNode("c")
			b.AddEdge(first+graph.NodeID(i-1), first+graph.NodeID(i), graph.TreeEdge)
		}
		return first
	}
	addChain(60)
	addChain(60)
	addChain(4)
	addChain(4)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	shards := mustPartition(t, g, 4)
	large := 0
	for _, sh := range shards {
		if sh.NumNodes() == 60 {
			if sh.Components() != 1 {
				t.Fatalf("large component shares a shard (%d components)", sh.Components())
			}
			large++
		}
	}
	if large != 2 {
		t.Fatalf("want 2 single-large shards, got %d (sizes: %v)", large, shardSizes(shards))
	}
}

func shardSizes(shards []*Shard) []int {
	out := make([]int, len(shards))
	for i, sh := range shards {
		out[i] = sh.NumNodes()
	}
	return out
}

func TestCovers(t *testing.T) {
	// Component 0: root -> a -> b. Component 1: x -> y.
	b := graph.NewBuilder()
	b.AddNode("root")
	b.AddNode("a")
	b.AddNode("b")
	b.AddNode("x")
	b.AddNode("y")
	b.AddEdge(0, 1, graph.TreeEdge)
	b.AddEdge(1, 2, graph.TreeEdge)
	b.AddEdge(3, 4, graph.TreeEdge)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	shards := mustPartition(t, g, 2)
	if len(shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(shards))
	}
	rootSh, otherSh := shards[0], shards[1]
	cases := []struct {
		expr        string
		root, other bool
	}{
		{"/a/b", true, false}, // rooted: root shard only
		{"a/b", true, false},  // other shard lacks both labels
		{"x/y", false, true},  // root shard lacks x
		{"*/y", false, true},  // wildcard step constrains nothing
		{"a/y", false, false}, // labels split across shards: nobody covers
		{"zz", false, false},  // unknown label: nobody covers
		{"*", true, true},     // pure wildcard: everybody
	}
	for _, c := range cases {
		e := mustParse(t, c.expr)
		if got := rootSh.Covers(e); got != c.root {
			t.Errorf("root shard Covers(%q) = %v, want %v", c.expr, got, c.root)
		}
		if got := otherSh.Covers(e); got != c.other {
			t.Errorf("other shard Covers(%q) = %v, want %v", c.expr, got, c.other)
		}
	}
}

// State lifecycle: unfrozen construction, generation-0 publish, refinement
// publishing generation 1 with a now-precise answer, no-op re-refinement,
// and retirement rebuilding as generation 2.
func TestStateLifecycle(t *testing.T) {
	g := gtest.New(11, gtest.Options{Nodes: 300, Labels: 5, RefProb: 0.15, Components: 3})
	shards := mustPartition(t, g, 3)
	sh := shards[0]
	st := NewState(sh, core.MStarOptions{})
	if st.Snapshot().FZ != nil {
		t.Fatal("frozen snapshot before FreezeInitial")
	}
	st.FreezeInitial()
	snap := st.Snapshot()
	if snap.FZ == nil || snap.Gen != 0 {
		t.Fatalf("after FreezeInitial: gen %d, fz %v", snap.Gen, snap.FZ != nil)
	}
	if n, _, _ := st.FreezeStats(); n != 1 {
		t.Fatalf("freeze count %d, want 1", n)
	}

	// Find a FUP whose answer is imprecise on this shard so Refine has work.
	var fup *pathexpr.Expr
	for _, w := range gtest.RandomWorkload(12, g, gtest.WorkloadOptions{Size: 40, MaxLen: 4}) {
		e := mustParse(t, w)
		if !sh.Covers(e) {
			continue
		}
		if res, _ := snap.FZ.QueryOpts(e, query.ValidateOpts{}); !res.Precise && len(res.Answer) > 0 {
			fup = e
			break
		}
	}
	if fup == nil {
		t.Skip("workload produced no imprecise expression on shard 0")
	}
	if !st.Refine(fup, query.ValidateOpts{}) {
		t.Fatal("Refine reported no-op for an imprecise FUP")
	}
	snap2 := st.Snapshot()
	if snap2.Gen != 1 {
		t.Fatalf("generation %d after refine, want 1", snap2.Gen)
	}
	if res, _ := snap2.FZ.QueryOpts(fup, query.ValidateOpts{}); !res.Precise {
		t.Fatal("refined FUP still imprecise")
	}
	ms, _ := st.CopyIndex()
	if err := ms.Validate(false); err != nil {
		t.Fatalf("refined shard index invalid: %v", err)
	}
	if err := snap2.FZ.CheckAgainst(ms); err != nil {
		t.Fatalf("published view is not the writer's index: %v", err)
	}
	if st.Refine(fup, query.ValidateOpts{}) {
		t.Fatal("re-refining a supported FUP published a snapshot")
	}
	if st.Generation() != 1 {
		t.Fatalf("no-op refine bumped generation to %d", st.Generation())
	}

	if !st.Retire(fup) {
		t.Fatal("Retire reported no-op for a supported FUP")
	}
	if st.Generation() != 2 {
		t.Fatalf("generation %d after retire, want 2", st.Generation())
	}
	if len(st.SupportedFUPs()) != 0 {
		t.Fatal("retired FUP still registered")
	}
	if st.Retire(fup) {
		t.Fatal("retiring an unsupported FUP published a snapshot")
	}
}

// The cold-restart path — store.ReadGraph, then Partition and the Induce
// it runs per shard — allocates O(labels + shards + log n), never once per
// node: doubling the graph at a fixed component count may grow each step's
// allocation count by at most half.
func TestRestartPathAllocsScale(t *testing.T) {
	if gtest.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := func(nodes int) (read, part, induce float64) {
		g := gtest.New(9, gtest.Options{Nodes: nodes, Labels: 8, RefProb: 0.1, Components: 6})
		var buf bytes.Buffer
		if err := store.WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		read = testing.AllocsPerRun(3, func() {
			if _, err := store.ReadGraph(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		part = testing.AllocsPerRun(3, func() { mustPartition(t, g, 4) })
		members := g.WeakComponents()[1]
		induce = testing.AllocsPerRun(3, func() {
			if _, err := g.Induce(members); err != nil {
				t.Fatal(err)
			}
		})
		return read, part, induce
	}
	r1, p1, i1 := allocs(4000)
	r2, p2, i2 := allocs(8000)
	for _, step := range []struct {
		name   string
		n, n2x float64
	}{{"ReadGraph", r1, r2}, {"Partition", p1, p2}, {"Induce", i1, i2}} {
		if step.n2x > 1.5*step.n {
			t.Errorf("%s: %.0f allocations at 4000 nodes, %.0f at 8000", step.name, step.n, step.n2x)
		}
	}
}
