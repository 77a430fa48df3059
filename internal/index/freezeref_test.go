package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/partition"
)

// freezeSorting is Graph.Freeze as it was before the counting transposes:
// every live node's child and parent maps are mapped through the
// renumbering and pdqsorted. It is the oracle TestFreezeMatchesSortingOracle
// compares the sort-free Freeze against.
func (ig *Graph) freezeSorting() *Frozen {
	fz := &Frozen{data: ig.data, version: ig.version}
	liveOf := make([]FrozenID, len(ig.nodes)) // retired NodeID -> FrozenID
	arena := 0
	fz.retired = make([]NodeID, 0, ig.liveNodes)
	fz.ks = make([]int32, 0, ig.liveNodes)
	fz.labels = make([]graph.LabelID, 0, ig.liveNodes)
	for _, n := range ig.nodes {
		if n == nil || n.dead {
			continue
		}
		liveOf[n.id] = FrozenID(len(fz.retired))
		fz.retired = append(fz.retired, n.id)
		fz.ks = append(fz.ks, int32(n.k))
		fz.labels = append(fz.labels, n.label)
		arena += len(n.extent)
	}
	nLive := len(fz.retired)
	fz.extentStart = make([]int32, nLive+1)
	fz.extentArena = make([]graph.NodeID, 0, arena)
	fz.childStart = make([]int32, nLive+1)
	fz.children = make([]FrozenID, 0, ig.liveEdges)
	fz.parentStart = make([]int32, nLive+1)
	fz.parents = make([]FrozenID, 0, ig.liveEdges)
	fz.nodeOf = make([]FrozenID, ig.data.NumNodes())
	for li, id := range fz.retired {
		n := ig.nodes[id]
		fz.extentStart[li] = int32(len(fz.extentArena))
		fz.extentArena = append(fz.extentArena, n.extent...)
		for _, o := range n.extent {
			fz.nodeOf[o] = FrozenID(li)
		}
		fz.childStart[li] = int32(len(fz.children))
		fz.children = appendSortedIDs(fz.children, n.children, liveOf)
		fz.parentStart[li] = int32(len(fz.parents))
		fz.parents = appendSortedIDs(fz.parents, n.parents, liveOf)
	}
	fz.extentStart[nLive] = int32(len(fz.extentArena))
	fz.childStart[nLive] = int32(len(fz.children))
	fz.parentStart[nLive] = int32(len(fz.parents))
	fz.buildLabelRanges(ig.data.NumLabels())
	return fz
}

// appendSortedIDs maps one adjacency set through the renumbering and appends
// it in ascending FrozenID order — the only place freezing touches a map,
// which is why it lives on the write side of the split.
func appendSortedIDs(dst []FrozenID, set map[NodeID]struct{}, liveOf []FrozenID) []FrozenID {
	at := len(dst)
	for id := range set {
		dst = append(dst, liveOf[id])
	}
	s := dst[at:]
	slices.Sort(s)
	return dst
}

// CheckFreezeMatchesOracle freezes ig and reports an error unless the
// snapshot verifies and its arrays equal the sorting oracle's exactly. It is
// exported for the external test package, which freezes the components of
// core.MStar indexes (core imports index, so only index_test can).
func CheckFreezeMatchesOracle(ig *Graph) error {
	fz := ig.Freeze()
	if err := fz.Verify(); err != nil {
		return err
	}
	if got, want := fz.Arrays(), ig.freezeSorting().Arrays(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("frozen arrays diverge from the sorting oracle:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

// splitRandomly splits a random live node of ig with at least two extent
// members into two or three random pieces, keeping its k (so P3 holds
// whatever the split), and reports whether it found such a node. Pieces of a
// node whose extent holds a data edge can keep the index self-loop.
func splitRandomly(rng *rand.Rand, ig *Graph) bool {
	var cands []*Node
	ig.ForEachNode(func(n *Node) {
		if n.Size() >= 2 {
			cands = append(cands, n)
		}
	})
	if len(cands) == 0 {
		return false
	}
	w := cands[rng.Intn(len(cands))]
	pieces := make([][]graph.NodeID, 2+rng.Intn(2))
	for _, o := range w.Extent() {
		i := rng.Intn(len(pieces))
		pieces[i] = append(pieces[i], o)
	}
	ks := make([]int, len(pieces))
	for i := range ks {
		ks[i] = w.K()
	}
	ig.Split(w, pieces, ks)
	return true
}

// hasSelfLoop reports whether some live node of ig is its own child.
func hasSelfLoop(ig *Graph) bool {
	loop := false
	ig.ForEachNode(func(n *Node) { loop = loop || ig.HasEdge(n, n) })
	return loop
}

// The sort-free Freeze must produce byte for byte the arrays of the sorting
// one on trees, DAGs and cyclic graphs of several components, after every
// split of a random sequence.
func TestFreezeMatchesSortingOracle(t *testing.T) {
	loops := 0
	for seed := int64(0); seed < 12; seed++ {
		shape := []gtest.Shape{gtest.Tree, gtest.DAG, gtest.Cyclic}[seed%3]
		g := gtest.New(seed, gtest.Options{
			Nodes: 150, Labels: 4, RefProb: 0.2, Shape: shape, Components: 1 + int(seed%4),
		})
		ig := a0(g)
		if seed%2 == 1 {
			ig = FromPartition(g, partition.KBisim(g, 1), func(partition.BlockID) int { return 1 })
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; ; step++ {
			if err := CheckFreezeMatchesOracle(ig); err != nil {
				t.Fatalf("seed %d (%v), after %d splits: %v", seed, shape, step, err)
			}
			if step > 0 && hasSelfLoop(ig) {
				loops++
			}
			if step == 25 || !splitRandomly(rng, ig) {
				break
			}
		}
	}
	if loops == 0 {
		t.Fatal("no split left a self-loop; the oracle comparison missed that case")
	}
}
