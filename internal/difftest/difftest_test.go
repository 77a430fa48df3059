package difftest

import (
	"testing"

	"mrx/internal/core"
	"mrx/internal/engine"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

func newRefinedMStar(g *graph.Graph, fup string) *core.MStar {
	ms := core.NewMStar(g)
	ms.Support(mustParse(fup))
	return ms
}

// TestDifferentialAll is the acceptance run: ≥50 randomized (graph,
// workload, refinement-schedule) cases, each cross-checking every serving
// path — 1-index, A(k), D(k) construct + promote, UD(k,l), M(k), M*(k)
// under every strategy plus a MaxK cap, and the concurrent engine — against
// the slow reference evaluator, with full invariant checks (including P1
// k-bisimilarity) after every refinement step.
func TestDifferentialAll(t *testing.T) {
	cases := 56
	if testing.Short() {
		cases = 12
	}
	Run(t, Config{Cases: cases, Seed: 1, MinNodes: 25, MaxNodes: 80, CheckBisim: true})
}

// TestDifferentialDrift is the adaptive-tuning acceptance run: randomized
// drifting workloads replayed through an auto-tuned engine with a manually
// stepped tuner. Every answer is cross-checked against SlowEval, structural
// invariants are re-verified after every tuner step (with full P1
// k-bisimilarity after every retirement), and each phase's hot set must
// converge to precise answers within a bounded number of epochs.
func TestDifferentialDrift(t *testing.T) {
	cases := 12
	if testing.Short() {
		cases = 4
	}
	RunDrift(t, Config{Cases: cases, Seed: 7, MinNodes: 25, MaxNodes: 70, CheckBisim: true})
}

// TestDriftSmoke replays one small canned drifting workload and asserts
// bounded-epoch convergence in every phase — the CI smoke gate for the
// adaptive tuner (make drift-smoke).
func TestDriftSmoke(t *testing.T) {
	rep := RunDriftCase(t, RandomDriftCase(42, 30, 50, true))
	for phase, epoch := range rep.ConvergedAt {
		if epoch < 0 || epoch >= 6 {
			t.Fatalf("phase %d converged at epoch %d, want within [0,6)", phase, epoch)
		}
	}
	if rep.Promotions == 0 {
		t.Fatal("smoke drift never promoted")
	}
}

// A couple of hand-picked shapes the random generator hits rarely: a
// single-node graph, a root with no matching children, and a pure cycle.
func TestDifferentialDegenerate(t *testing.T) {
	o := RandomCase(99, 2, 2, true)
	RunCase(t, o)

	o = RandomCase(100, 3, 3, true)
	o.Graph.RefProb = 1
	RunCase(t, o)
}

// The reference evaluator must agree with the production ground-truth
// evaluator (query.DataIndex) on every expression class, including ones the
// random workload generates rarely.
func TestSlowEvalMatchesDataIndex(t *testing.T) {
	exprs := []string{
		"//root", "/l0", "//l0", "//l0/l1", "/l0/l1/l2", "//*", "/*",
		"//l0/*/l1", "//l0//l1", "/l0//l2", "//*//l1", "//l1/l1/l1",
		"//zz", "/zz/l0", "//l0/zz",
	}
	for seed := int64(0); seed < 25; seed++ {
		o := RandomCase(seed, 20, 120, false)
		g := gtest.New(seed, o.Graph)
		di := query.NewDataIndex(g)
		all := append([]string(nil), exprs...)
		all = append(all, gtest.RandomWorkload(seed, g, gtest.WorkloadOptions{
			Size: 15, MaxLen: 5, Adversarial: 0.3, Rooted: 0.3, Wildcard: 0.2, DescAxis: 0.2,
		})...)
		for _, s := range all {
			e, err := pathexpr.Parse(s)
			if err != nil {
				t.Fatalf("%q: %v", s, err)
			}
			slow := SlowEval(g, e)
			fast := di.Eval(e)
			if !equalIDs(slow, fast) {
				t.Fatalf("seed %d: %s: SlowEval %v, DataIndex.Eval %v", seed, e, slow, fast)
			}
		}
	}
}

// Hand-checked fixture: SlowEval on a graph small enough to verify by eye,
// so the oracle itself is anchored to something other than the code under
// test.
func TestSlowEvalFixture(t *testing.T) {
	// root -> a(1) -> b(2) -> c(3)
	//      -> b(4) -> c(5)
	//      a(1) -ref-> c(5)
	b := graph.NewBuilder()
	b.AddNode("root")
	b.AddNode("a")
	b.AddNode("b")
	b.AddNode("c")
	b.AddNode("b")
	b.AddNode("c")
	b.AddEdge(0, 1, graph.TreeEdge)
	b.AddEdge(1, 2, graph.TreeEdge)
	b.AddEdge(2, 3, graph.TreeEdge)
	b.AddEdge(0, 4, graph.TreeEdge)
	b.AddEdge(4, 5, graph.TreeEdge)
	b.AddEdge(1, 5, graph.RefEdge)
	g := mustFreeze(b)

	for _, tc := range []struct {
		expr string
		want []graph.NodeID
	}{
		{"//a/b", []graph.NodeID{2}},
		{"//b/c", []graph.NodeID{3, 5}},
		{"/a/b/c", []graph.NodeID{3}},
		{"//a/c", []graph.NodeID{5}}, // via the reference edge
		{"/b", []graph.NodeID{4}},
		{"//a//c", []graph.NodeID{3, 5}},
		{"//root//c", []graph.NodeID{3, 5}},
		{"/c", nil},
		{"//x", nil},
		{"//*/c", []graph.NodeID{3, 5}},
	} {
		got := SlowEval(g, mustParse(tc.expr))
		if !equalIDs(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.expr, got, tc.want)
		}
	}
}

// Fingerprint must be deterministic, agree on equal frozen views, and
// change on refinement and on any write into a published array (the
// immutability check depends on all of these).
func TestFingerprint(t *testing.T) {
	g := gtest.Random(5, 60, 4, 0.2)
	ms := newRefinedMStar(g, "//l0/l1")
	fz := ms.Freeze()
	fp1 := Fingerprint(fz)
	if Fingerprint(fz) != fp1 {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(ms.Clone().Freeze()) != fp1 {
		t.Fatal("equal frozen views fingerprint differently")
	}
	base := ms.Versions()
	ms.Support(mustParse("//l1/l2/l3"))
	if Fingerprint(fz) != fp1 {
		t.Fatal("refining in place changed the previously frozen view")
	}
	if !ms.UnchangedSince(base) && Fingerprint(ms.FreezeReusing(base, fz)) == fp1 {
		t.Fatal("refinement did not change fingerprint")
	}
	arena := fz.Component(fz.NumComponents() - 1).Arrays().ExtentArena
	arena[0] ^= 1
	mutated := Fingerprint(fz)
	arena[0] ^= 1
	if mutated == fp1 {
		t.Fatal("a write into a published extent arena left the fingerprint unchanged")
	}
}

// The engine paths' immutability check is not vacuous: a write into an array
// of a published generation's frozen view makes Finish fail, and undoing it
// makes Finish pass again.
func TestPublishedViewMutationFailsFinish(t *testing.T) {
	g := gtest.New(6, gtest.Options{Nodes: 200, Labels: 5, RefProb: 0.1, Components: 3})
	fups := Supportable(parseAll(t, gtest.RandomWorkload(7, g, gtest.WorkloadOptions{Size: 20, MaxLen: 3})))
	for _, build := range []func(*graph.Graph, PathsOptions) (*ServingPath, error){enginePath, shardedPath} {
		sp, err := build(g, PathsOptions{Parallelism: 1, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		var gen0 *core.FrozenMStar
		switch en := sp.Querier.(type) {
		case *engine.Engine:
			gen0 = en.FrozenSnapshot()
		case *engine.Sharded:
			gen0 = en.ShardState(0).Snapshot().FZ
		}
		for _, e := range fups {
			sp.Support(e)
		}
		if err := sp.Finish(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		ks := gen0.Component(0).Arrays().Ks
		ks[0]++
		err = sp.Finish()
		ks[0]--
		if err == nil {
			t.Fatalf("%s: a write into a published Ks array went unnoticed", sp.Name)
		}
		if err := sp.Finish(); err != nil {
			t.Fatalf("%s: after undoing the write: %v", sp.Name, err)
		}
	}
}
