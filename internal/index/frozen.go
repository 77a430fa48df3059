package index

import (
	"fmt"

	"mrx/internal/graph"
)

// FrozenID identifies a live node inside one Frozen view. IDs are dense —
// 0..NumNodes()-1 — and assigned in ascending order of the source graph's
// (retired) NodeIDs, so every enumeration over a Frozen is deterministic by
// construction and visited-set bookkeeping can use flat arrays instead of
// maps.
type FrozenID int32

// Frozen is an immutable, CSR-flattened snapshot of an index Graph: the
// read-path twin of the mutable refinement graph. Where Graph keeps
// per-node adjacency maps and per-label ID sets (mutation-friendly,
// allocation-heavy, nondeterministic iteration), Frozen stores the same
// information as a handful of flat arrays:
//
//   - a dense live-node renumbering (FrozenID), with Retired mapping each
//     frozen node back to its NodeID in the mutable graph;
//   - one extent arena holding every extent back to back, with offsets;
//   - CSR child and parent adjacency over FrozenIDs, sorted ascending by
//     construction (Freeze derives both by counting transposes, no sort);
//   - per-label node ranges, sorted ascending within each label;
//   - the data-node -> frozen-node ownership array.
//
// A Frozen shares nothing mutable with its source graph (extents are copied
// into the arena), so a published Frozen stays valid however the source is
// refined afterwards. It contains no maps at all: serving queries from a
// Frozen performs zero map operations.
type Frozen struct {
	data *graph.Graph

	retired []NodeID        // FrozenID -> source-graph NodeID
	ks      []int32         // FrozenID -> local similarity
	labels  []graph.LabelID // FrozenID -> label

	extentStart []int32 // len NumNodes+1; offsets into extentArena
	extentArena []graph.NodeID

	childStart  []int32 // len NumNodes+1; offsets into children
	children    []FrozenID
	parentStart []int32
	parents     []FrozenID

	labelStart []int32 // len NumLabels+1; offsets into labelNodes
	labelNodes []FrozenID

	nodeOf  []FrozenID // data node -> owning frozen node
	version uint64     // source graph's Version() at freeze time
}

// Freeze flattens the live part of the index graph into an immutable CSR
// snapshot. Live nodes are renumbered densely in ascending NodeID order, so
// two structurally identical graphs freeze to identical snapshots.
//
// Adjacency is counted, not sorted: each live node's child map is walked
// once, in ascending FrozenID order, into an unsorted child CSR. Its
// counting transpose (graph.Transpose) lists every node's parents
// ascending, and transposing those back lists its children ascending — the
// only map freezing reads is the child set, which is why Freeze lives on
// the write side of the split.
func (ig *Graph) Freeze() *Frozen {
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
	childStart := make([]int32, nLive+1)
	children := make([]FrozenID, 0, ig.liveEdges)
	fz.nodeOf = make([]FrozenID, ig.data.NumNodes())
	for li, id := range fz.retired {
		n := ig.nodes[id]
		fz.extentStart[li] = int32(len(fz.extentArena))
		fz.extentArena = append(fz.extentArena, n.extent...)
		for _, o := range n.extent {
			fz.nodeOf[o] = FrozenID(li)
		}
		childStart[li] = int32(len(children))
		for c := range n.children {
			children = append(children, liveOf[c])
		}
	}
	fz.extentStart[nLive] = int32(len(fz.extentArena))
	childStart[nLive] = int32(len(children))
	fz.parentStart, fz.parents = graph.Transpose(childStart, children)
	fz.childStart, fz.children = graph.Transpose(fz.parentStart, fz.parents)
	fz.buildLabelRanges(ig.data.NumLabels())
	return fz
}

// buildLabelRanges counting-sorts the frozen nodes by label; within one
// label the FrozenIDs stay ascending.
func (fz *Frozen) buildLabelRanges(numLabels int) {
	fz.labelStart = make([]int32, numLabels+1)
	for _, l := range fz.labels {
		fz.labelStart[l+1]++
	}
	for i := 0; i < numLabels; i++ {
		fz.labelStart[i+1] += fz.labelStart[i]
	}
	fz.labelNodes = make([]FrozenID, len(fz.labels))
	fill := append([]int32(nil), fz.labelStart[:numLabels]...)
	for li, l := range fz.labels {
		fz.labelNodes[fill[l]] = FrozenID(li)
		fill[l]++
	}
}

// Data returns the underlying data graph.
func (fz *Frozen) Data() *graph.Graph { return fz.data }

// NumNodes returns the number of (live) frozen nodes.
func (fz *Frozen) NumNodes() int { return len(fz.retired) }

// NumEdges returns the number of index edges.
func (fz *Frozen) NumEdges() int { return len(fz.children) }

// SourceVersion returns the mutable graph's Version() at freeze time.
func (fz *Frozen) SourceVersion() uint64 { return fz.version }

// K returns the local similarity of frozen node v.
func (fz *Frozen) K(v FrozenID) int { return int(fz.ks[v]) }

// Label returns the label of frozen node v.
func (fz *Frozen) Label(v FrozenID) graph.LabelID { return fz.labels[v] }

// Retired returns the source-graph NodeID frozen node v was flattened from.
func (fz *Frozen) Retired(v FrozenID) NodeID { return fz.retired[v] }

// Extent returns the extent of v, sorted ascending. The slice aliases the
// arena and must not be modified.
func (fz *Frozen) Extent(v FrozenID) []graph.NodeID {
	return fz.extentArena[fz.extentStart[v]:fz.extentStart[v+1]]
}

// Size returns the extent size of v.
func (fz *Frozen) Size(v FrozenID) int {
	return int(fz.extentStart[v+1] - fz.extentStart[v])
}

// Children returns the child nodes of v in ascending FrozenID order. The
// slice aliases internal storage and must not be modified.
func (fz *Frozen) Children(v FrozenID) []FrozenID {
	return fz.children[fz.childStart[v]:fz.childStart[v+1]]
}

// Parents returns the parent nodes of v in ascending FrozenID order. The
// slice aliases internal storage and must not be modified.
func (fz *Frozen) Parents(v FrozenID) []FrozenID {
	return fz.parents[fz.parentStart[v]:fz.parentStart[v+1]]
}

// NodesWithLabel returns the frozen nodes carrying label l, ascending. The
// slice aliases internal storage and must not be modified.
func (fz *Frozen) NodesWithLabel(l graph.LabelID) []FrozenID {
	return fz.labelNodes[fz.labelStart[l]:fz.labelStart[l+1]]
}

// CountLabel returns the number of frozen nodes carrying label l.
func (fz *Frozen) CountLabel(l graph.LabelID) int {
	return int(fz.labelStart[l+1] - fz.labelStart[l])
}

// NodeOf returns the frozen node whose extent contains data node o.
func (fz *Frozen) NodeOf(o graph.NodeID) FrozenID { return fz.nodeOf[o] }

// Root returns the frozen node containing the data-graph root.
func (fz *Frozen) Root() FrozenID { return fz.NodeOf(fz.data.Root()) }

// ComputeStats gathers the same summary statistics as Graph.ComputeStats.
func (fz *Frozen) ComputeStats() Stats {
	s := Stats{Nodes: fz.NumNodes(), Edges: fz.NumEdges(), DataSize: fz.data.NumNodes()}
	sumK := 0
	for v := 0; v < fz.NumNodes(); v++ {
		if k := fz.K(FrozenID(v)); k > s.MaxK {
			s.MaxK = k
		}
		if e := fz.Size(FrozenID(v)); e > s.MaxExt {
			s.MaxExt = e
		}
		sumK += fz.K(FrozenID(v))
	}
	if s.Nodes > 0 {
		s.AvgK = float64(sumK) / float64(s.Nodes)
	}
	return s
}

// CheckAgainst verifies that the frozen view is an exact flattening of ig:
// same live nodes (IDs, labels, similarities, extents), same adjacency, same
// label buckets, same data-node ownership. The differential tests call it
// after every refine-and-refreeze step; any drift between the mutable and
// frozen representations is a bug in Freeze or in snapshot reuse.
func (fz *Frozen) CheckAgainst(ig *Graph) error {
	if fz.data != ig.Data() {
		return fmt.Errorf("frozen: different data graph")
	}
	if fz.NumNodes() != ig.NumNodes() {
		return fmt.Errorf("frozen: %d nodes, mutable graph has %d live", fz.NumNodes(), ig.NumNodes())
	}
	if fz.NumEdges() != ig.NumEdges() {
		return fmt.Errorf("frozen: %d edges, mutable graph has %d live", fz.NumEdges(), ig.NumEdges())
	}
	li := FrozenID(0)
	var err error
	ig.ForEachNode(func(n *Node) {
		if err != nil {
			return
		}
		if fz.retired[li] != n.ID() {
			err = fmt.Errorf("frozen node %d maps to retired %d, mutable order gives %d", li, fz.retired[li], n.ID())
			return
		}
		if fz.K(li) != n.K() || fz.Label(li) != n.Label() {
			err = fmt.Errorf("frozen node %d: k/label %d/%d, mutable %d/%d",
				li, fz.K(li), fz.Label(li), n.K(), n.Label())
			return
		}
		if !equalNodeIDs(fz.Extent(li), n.Extent()) {
			err = fmt.Errorf("frozen node %d: extent %v, mutable %v", li, fz.Extent(li), n.Extent())
			return
		}
		for _, o := range fz.Extent(li) {
			if fz.nodeOf[o] != li {
				err = fmt.Errorf("frozen nodeOf[%d]=%d, want %d", o, fz.nodeOf[o], li)
				return
			}
		}
		if err = fz.checkAdjacency(li, ig.Children(n), fz.Children(li), "child"); err != nil {
			return
		}
		if err = fz.checkAdjacency(li, ig.Parents(n), fz.Parents(li), "parent"); err != nil {
			return
		}
		li++
	})
	if err != nil {
		return err
	}
	for l := 0; l < ig.Data().NumLabels(); l++ {
		want := ig.NodesWithLabel(graph.LabelID(l))
		got := fz.NodesWithLabel(graph.LabelID(l))
		if len(want) != len(got) {
			return fmt.Errorf("frozen label %d: %d nodes, mutable %d", l, len(got), len(want))
		}
		for i, v := range got {
			if fz.retired[v] != want[i].ID() {
				return fmt.Errorf("frozen label %d bucket diverges at %d", l, i)
			}
		}
	}
	return nil
}

func (fz *Frozen) checkAdjacency(li FrozenID, want []*Node, got []FrozenID, kind string) error {
	if len(want) != len(got) {
		return fmt.Errorf("frozen node %d: %d %s edges, mutable %d", li, len(got), kind, len(want))
	}
	for i, v := range got {
		if fz.retired[v] != want[i].ID() {
			return fmt.Errorf("frozen node %d: %s %d is retired %d, mutable %d",
				li, kind, i, fz.retired[v], want[i].ID())
		}
	}
	return nil
}

func equalNodeIDs(a, b []graph.NodeID) bool {
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

// Thaw reconstructs a mutable index Graph from the frozen snapshot, for
// workloads that load the fast frozen form from disk and only later need to
// refine it. The result is freshly wired (adjacency maps rebuilt from the
// data graph) and uses FrozenIDs as NodeIDs.
func (fz *Frozen) Thaw() *Graph {
	ig := &Graph{
		data:    fz.data,
		nodeOf:  make([]NodeID, fz.data.NumNodes()),
		byLabel: make(map[graph.LabelID]map[NodeID]struct{}),
	}
	for v := 0; v < fz.NumNodes(); v++ {
		id := FrozenID(v)
		extent := append([]graph.NodeID(nil), fz.Extent(id)...)
		ig.attachNode(fz.Label(id), fz.K(id), extent)
	}
	ig.wireFromData()
	return ig
}

func p3Error(u, c FrozenID, ks []int32) error {
	return fmt.Errorf("index: P3 violated: edge %d->%d has k(parent)=%d < k(child)-1=%d", u, c, ks[u], ks[c]-1)
}

// appendInducedChildren appends to dst the child set P2 induces for u — the
// distinct owners of the data children of u's extent — in first-seen order.
// verifyCSR compares it as a set with the stored child list. stamp has one
// entry per index node and is left
// holding u+1 exactly at the appended nodes; pass it zeroed to the first
// call and unchanged to calls for other nodes.
func (fz *Frozen) appendInducedChildren(dst []FrozenID, u FrozenID, stamp []int32) []FrozenID {
	mark := int32(u) + 1
	for _, o := range fz.Extent(u) {
		for _, c := range fz.data.Children(o) {
			if w := fz.nodeOf[c]; stamp[w] != mark {
				stamp[w] = mark
				dst = append(dst, w)
			}
		}
	}
	return dst
}
