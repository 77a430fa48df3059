package mmapstore

import (
	"fmt"
	"testing"
	"time"

	"mrx/internal/core"
	"mrx/internal/graph"
)

// cliffGraph is the shape that makes anything superlinear in verification
// show: under the label partition (I0) one index node "a" owns `wide` data
// nodes whose children are spread round-robin over `fan` single-label index
// nodes, so its induced child multiset is `wide` long with `fan` distinct
// values; and the root, like "a", has `fan` distinct index children, so a
// transpose check that scans a parent's child list per edge does fan²/2
// steps.
func cliffGraph(tb testing.TB, wide, fan int) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder()
	root := b.AddNode("root")
	leaves := make([]graph.NodeID, fan)
	for j := range leaves {
		leaves[j] = b.AddNode(fmt.Sprintf("b%d", j))
		b.AddEdge(root, b.AddNode(fmt.Sprintf("c%d", j)), graph.TreeEdge)
	}
	for i := 0; i < wide; i++ {
		a := b.AddNode("a")
		b.AddEdge(root, a, graph.TreeEdge)
		// Every b-node keeps a tree parent; the rest arrive by reference.
		kind := graph.RefEdge
		if i < fan {
			kind = graph.TreeEdge
		}
		b.AddEdge(a, leaves[i%fan], kind)
	}
	g, err := b.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestVerifiedOpenIsNotQuadratic guards the complexity of the verified open,
// not its speed. On the shape above a verifier that sorts each extent's
// child multiset by insertion and scans a parent's child list per parent
// edge took 83 s on the machine where the linear one takes 8 ms (130 ms
// under -race). The deadline sits between the two — 250 times the linear
// run, 15 times the linear run under -race, a 40th of the quadratic one —
// so it neither flakes on a slow machine nor passes a quadratic verifier.
func TestVerifiedOpenIsNotQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600k-node graph")
	}
	const (
		wide     = 500_000
		fan      = 50_000
		deadline = 2 * time.Second
	)
	g := cliffGraph(t, wide, fan)
	fm := core.NewMStar(g).Freeze()
	a, ok := g.LabelIDOf("a")
	if !ok {
		t.Fatal("label a missing")
	}
	i0 := fm.Component(0)
	an := i0.NodesWithLabel(a)
	if len(an) != 1 || i0.Size(an[0]) < wide || len(i0.Children(an[0])) < fan || len(i0.Children(i0.Root())) < fan {
		t.Fatalf("test graph lost its shape: %d a-nodes", len(an))
	}
	enc := encode(t, fm, WriteOptions{})

	start := time.Now()
	snap, err := OpenBytes(enc, g, Options{})
	took := time.Since(start)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	t.Logf("verified open of %d data nodes, %d index edges: %v", g.NumNodes(), snap.FrozenMStar().Component(0).NumEdges(), took)
	if took > deadline {
		t.Fatalf("verified open took %v, over the %v that only superlinear verification can need", took, deadline)
	}
}
