package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/gtest"
)

func mustSharded(tb testing.TB, g *graph.Graph, o ShardedOptions) *Sharded {
	tb.Helper()
	en, err := NewSharded(g, o)
	if err != nil {
		tb.Fatalf("engine.NewSharded: %v", err)
	}
	return en
}

func sameIDs(a, b []graph.NodeID) bool {
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

// The scatter-gather answer must equal both the monolithic engine's answer
// and the ground truth, before and after refinement, at several shard
// counts.
func TestShardedMatchesMonolithic(t *testing.T) {
	g := gtest.New(21, gtest.Options{Nodes: 600, Labels: 7, RefProb: 0.12, Components: 6})
	workload := gtest.RandomWorkload(22, g, gtest.WorkloadOptions{
		Size: 60, MaxLen: 4, Adversarial: 0.2, Rooted: 0.3, Wildcard: 0.1,
	})
	mono := mustNew(t, g, Options{Parallelism: 2})
	for _, n := range []int{1, 2, 4, 8} {
		sh := mustSharded(t, g, ShardedOptions{Shards: n, Parallelism: 2})
		check := func(stage string) {
			t.Helper()
			for _, w := range workload {
				e := mustParse(w)
				want := mono.Query(e)
				got := sh.Query(e)
				if !sameIDs(got.Answer, want.Answer) {
					t.Fatalf("shards=%d %s: %s: sharded answer %v, monolithic %v",
						n, stage, w, got.Answer, want.Answer)
				}
				if truth := sh.Eval(e); !sameIDs(got.Answer, truth) {
					t.Fatalf("shards=%d %s: %s: sharded answer %v, ground truth %v",
						n, stage, w, got.Answer, truth)
				}
			}
		}
		check("initial")
		// Refine the same prefix of the workload on both engines.
		for _, w := range workload[:20] {
			e := mustParse(w)
			mono.Support(e)
			sh.Support(e)
		}
		check("refined")
		// Retire half of what was refined and re-check.
		for _, w := range workload[:10] {
			e := mustParse(w)
			mono.Retire(e)
			sh.Retire(e)
		}
		check("retired")
	}
}

// Rooted expressions route to the root-owning shard only; expressions whose
// labels exist on one shard only route there; unknown labels route nowhere
// and come back empty and precise.
func TestShardedRouting(t *testing.T) {
	g := twoComponentGraph(t)
	en := mustSharded(t, g, ShardedOptions{Shards: 2, Parallelism: 1})
	if en.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", en.NumShards())
	}
	perShard := func() []uint64 {
		s := en.Stats()
		out := make([]uint64, len(s.Shards))
		for i, sh := range s.Shards {
			out[i] = sh.Queries
		}
		return out
	}
	before := perShard()
	en.Query(mustParse("/a/b")) // rooted: shard 0 only
	en.Query(mustParse("y/q"))  // labels only on shard 1
	after := perShard()
	if after[0]-before[0] != 1 {
		t.Fatalf("root shard evaluated %d times, want 1", after[0]-before[0])
	}
	if after[1]-before[1] != 1 {
		t.Fatalf("second shard evaluated %d times, want 1", after[1]-before[1])
	}
	res := en.Query(mustParse("nosuchlabel"))
	if len(res.Answer) != 0 || !res.Precise {
		t.Fatalf("unknown label: answer %v precise %v, want empty precise", res.Answer, res.Precise)
	}
	if got := perShard(); got[0] != after[0] || got[1] != after[1] {
		t.Fatal("unroutable query still evaluated a shard")
	}
}

// A Support that publishes on no shard counts exactly one skip, whatever
// the shard count: re-Supporting a supported FUP moves RefinesSkipped by 1
// and nothing else.
func TestShardedSupportCountsOneSkip(t *testing.T) {
	g := twoComponentGraph(t)
	for _, n := range []int{1, 2} {
		en := mustSharded(t, g, ShardedOptions{Shards: n, Parallelism: 1})
		if en.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", en.NumShards(), n)
		}
		e := mustParse("a/b")
		if !en.Support(e) {
			t.Fatalf("shards=%d: first Support published nothing", n)
		}
		before := en.Stats()
		if en.Support(e) {
			t.Fatalf("shards=%d: re-Support published", n)
		}
		after := en.Stats()
		if d := after.RefinesSkipped - before.RefinesSkipped; d != 1 {
			t.Errorf("shards=%d: re-Support moved RefinesSkipped by %d, want 1", n, d)
		}
		if after.Refinements != before.Refinements || after.SnapshotPublishes != before.SnapshotPublishes {
			t.Errorf("shards=%d: re-Support moved refinements %d->%d, publishes %d->%d", n,
				before.Refinements, after.Refinements, before.SnapshotPublishes, after.SnapshotPublishes)
		}
	}
}

// twoComponentGraph builds two weak components with disjoint label sets and
// imprecise-at-I0 length-1 expressions on each: component 0 (with the
// root) answers a/b, component 1 answers y/q.
func twoComponentGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNode("root") // 0
	b.AddNode("a")    // 1
	b.AddNode("c")    // 2
	b.AddNode("b")    // 3: a/b instance
	b.AddNode("b")    // 4: c/b sibling keeps a/b imprecise at I0
	b.AddEdge(0, 1, graph.TreeEdge)
	b.AddEdge(0, 2, graph.TreeEdge)
	b.AddEdge(1, 3, graph.TreeEdge)
	b.AddEdge(2, 4, graph.TreeEdge)
	b.AddNode("x") // 5: entry of component 1
	b.AddNode("y") // 6
	b.AddNode("z") // 7
	b.AddNode("q") // 8: y/q instance
	b.AddNode("q") // 9: z/q sibling keeps y/q imprecise at I0
	b.AddEdge(5, 6, graph.TreeEdge)
	b.AddEdge(5, 7, graph.TreeEdge)
	b.AddEdge(6, 8, graph.TreeEdge)
	b.AddEdge(7, 9, graph.TreeEdge)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Refinements on disjoint shards must not serialize: while shard 0 holds
// its write lock mid-refinement, a refinement owned by shard 1 completes.
// With a global writer lock this deadlocks (and the test times out), so the
// proof is deterministic, not timing-based.
func TestShardedRefinementsDoNotSerialize(t *testing.T) {
	g := twoComponentGraph(t)
	en := mustSharded(t, g, ShardedOptions{Shards: 2, Parallelism: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	en.ShardState(0).RefineHook = func() {
		close(entered)
		<-release
	}

	doneA := make(chan bool)
	go func() { doneA <- en.Support(mustParse("a/b")) }()
	<-entered // shard 0's write lock is now held mid-refinement

	doneB := make(chan bool)
	go func() { doneB <- en.Support(mustParse("y/q")) }()
	select {
	case ok := <-doneB:
		if !ok {
			t.Error("shard 1 refinement was a no-op")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("refinement on shard 1 serialized behind shard 0's write lock")
	}

	close(release)
	if !<-doneA {
		t.Error("shard 0 refinement was a no-op")
	}
	if g0 := en.ShardState(0).Generation(); g0 != 1 {
		t.Errorf("shard 0 generation %d, want 1", g0)
	}
	if g1 := en.ShardState(1).Generation(); g1 != 1 {
		t.Errorf("shard 1 generation %d, want 1", g1)
	}
}

// shardBytes encodes every shard's frozen snapshot in the mmapstore
// format. Byte equality of the encodings is the determinism criterion.
func shardBytes(t *testing.T, en *Sharded) [][]byte {
	t.Helper()
	out := make([][]byte, en.NumShards())
	for i := range out {
		out[i] = encodeFrozen(t, en.ShardState(i).Snapshot().FZ)
	}
	return out
}

// Parallel freezes must be deterministic: the same graph, shard count and
// refinement sequence produce byte-identical shard snapshots after every
// step for every Parallelism, which bounds both the initial per-shard
// freeze fan-out and the per-component fan-out of each later publish —
// Supports and a Retire's full re-freeze alike. Run with -race in CI, this
// also shakes out data races in both fan-outs.
func TestShardedFreezeDeterministic(t *testing.T) {
	g := gtest.New(31, gtest.Options{Nodes: 500, Labels: 6, RefProb: 0.1, Components: 8})
	workload := gtest.RandomWorkload(32, g, gtest.WorkloadOptions{Size: 12, MaxLen: 3})

	// run returns the shard encodings after the initial freeze, after each
	// Support, and after retiring the first FUP supported.
	run := func(parallelism int) [][][]byte {
		en := mustSharded(t, g, ShardedOptions{Shards: 4, Parallelism: parallelism})
		steps := [][][]byte{shardBytes(t, en)}
		for _, w := range workload {
			en.Support(mustParse(w))
			steps = append(steps, shardBytes(t, en))
		}
		fups := en.SupportedFUPs()
		if len(fups) == 0 || !en.Retire(fups[0]) {
			t.Fatal("nothing to retire: the workload supported no FUP")
		}
		steps = append(steps, shardBytes(t, en))
		// Frozen views must also agree with their writers' indexes.
		comps := 0
		for i := 0; i < en.NumShards(); i++ {
			ms, snap := en.ShardState(i).CopyIndex()
			if err := snap.FZ.CheckAgainst(ms); err != nil {
				t.Fatalf("Parallelism=%d shard %d: %v", parallelism, i, err)
			}
			comps = max(comps, ms.NumComponents())
		}
		if comps < 3 {
			t.Fatalf("no shard grew past %d components: no publish froze several at once", comps)
		}
		return steps
	}
	want := run(1)
	for _, p := range []int{4, 8} {
		got := run(p)
		for step := range want {
			for i := range want[step] {
				if !bytes.Equal(got[step][i], want[step][i]) {
					t.Fatalf("Parallelism=%d step %d shard %d: snapshot differs from sequential freeze", p, step, i)
				}
			}
		}
	}
}

func TestShardedOptionsValidate(t *testing.T) {
	g := gtest.New(3, gtest.Options{Nodes: 20, Labels: 3})
	for _, o := range []ShardedOptions{
		{Shards: -1},
		{Parallelism: -1},
		{MStar: core.MStarOptions{Strategy: "bogus"}},
	} {
		if _, err := NewSharded(g, o); !errors.Is(err, errInvalidOption) {
			t.Errorf("NewSharded(%+v) error %v, want errInvalidOption", o, err)
		}
	}
}

// Stats must carry one entry per shard, shard 0 owning the root, and render
// the per-shard lines.
func TestShardedStats(t *testing.T) {
	g := twoComponentGraph(t)
	en := mustSharded(t, g, ShardedOptions{Shards: 2, Parallelism: 1})
	en.Query(mustParse("a/b"))
	en.Support(mustParse("y/q"))
	s := en.Stats()
	if len(s.Shards) != 2 {
		t.Fatalf("Stats.Shards has %d entries, want 2", len(s.Shards))
	}
	if !s.Shards[0].HasRoot || s.Shards[1].HasRoot {
		t.Fatal("root ownership misreported")
	}
	if s.Shards[1].Generation != 1 {
		t.Fatalf("shard 1 generation %d, want 1 after one refinement", s.Shards[1].Generation)
	}
	if s.Generation != en.Generation() || s.Generation != 1 {
		t.Fatalf("summed generation %d, want 1", s.Generation)
	}
	// Every shard ran its initial freeze; the refined one ran a second.
	if s.Shards[0].Freezes != 1 || s.Shards[1].Freezes != 2 {
		t.Fatalf("freeze counts %d/%d, want 1/2", s.Shards[0].Freezes, s.Shards[1].Freezes)
	}
	text := s.String()
	if !strings.Contains(text, "shard 0") || !strings.Contains(text, "shard 1") {
		t.Fatalf("rendered stats missing shard lines:\n%s", text)
	}
}
