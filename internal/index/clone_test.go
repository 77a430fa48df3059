package index

import (
	"strings"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/partition"
)

func TestCloneIndependentEvolution(t *testing.T) {
	g := gtest.Random(2, 100, 4, 0.2)
	orig := FromPartition(g, partition.ByLabel(g), func(partition.BlockID) int { return 0 })
	clone := orig.Clone()
	if err := clone.Validate(true); err != nil {
		t.Fatal(err)
	}
	if clone.NumNodes() != orig.NumNodes() || clone.NumEdges() != orig.NumEdges() {
		t.Fatal("clone sizes differ")
	}

	// Split a node in the clone; the original must be untouched.
	var big *Node
	clone.ForEachNode(func(n *Node) {
		if big == nil || n.Size() > big.Size() {
			big = n
		}
	})
	ext := big.Extent()
	clone.Split(big, [][]graph.NodeID{append([]graph.NodeID(nil), ext[:1]...), append([]graph.NodeID(nil), ext[1:]...)}, []int{0, 0})
	if err := clone.Validate(true); err != nil {
		t.Fatal(err)
	}
	if err := orig.Validate(true); err != nil {
		t.Fatalf("original corrupted by clone split: %v", err)
	}
	if clone.NumNodes() != orig.NumNodes()+1 {
		t.Fatalf("clone=%d orig=%d", clone.NumNodes(), orig.NumNodes())
	}
	// And vice versa: split in the original does not touch the clone.
	var big2 *Node
	orig.ForEachNode(func(n *Node) {
		if n.Size() >= 2 && (big2 == nil || n.Size() > big2.Size()) {
			big2 = n
		}
	})
	ext2 := big2.Extent()
	nClone := clone.NumNodes()
	orig.Split(big2, [][]graph.NodeID{append([]graph.NodeID(nil), ext2[:1]...), append([]graph.NodeID(nil), ext2[1:]...)}, []int{0, 0})
	if clone.NumNodes() != nClone {
		t.Fatal("original split leaked into clone")
	}
}

func TestIndexWriteDOT(t *testing.T) {
	g := graph.PaperFigure3()
	ig := FromPartition(g, partition.ByLabel(g), func(partition.BlockID) int { return 0 })
	var buf strings.Builder
	if err := ig.WriteDOT(&buf, "", 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph \"index\"", "k=0", "[6 nodes]", "->", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}
