// Package index provides the mutable structural index graph shared by the
// A(k)-, D(k)-, M(k)- and M*(k)-indexes.
//
// An index graph I(G) for a data graph G is a labeled directed graph whose
// nodes carry an extent (a set of data nodes) and a local similarity value k.
// The three basic properties (He & Yang §3) are:
//
//	P1: all data nodes in v.extent are v.k-bisimilar in G;
//	P2: (u, v) is an index edge iff some data edge connects their extents;
//	P3: for every parent u of v, u.k ≥ v.k − 1.
//
// The package maintains P2 incrementally under node splitting, which is the
// single mutation primitive all refinement algorithms use. Validate checks
// all three properties (P1 against a freshly computed k-bisimulation), which
// the test suites use as a property-based oracle.
package index

import (
	"fmt"
	"slices"

	"mrx/internal/graph"
	"mrx/internal/partition"
)

// NodeID identifies an index node within one Graph. IDs are never reused;
// splitting a node retires its ID and allocates fresh ones.
type NodeID int32

// Node is one index node: an equivalence class of data nodes.
type Node struct {
	id     NodeID
	label  graph.LabelID
	k      int
	extent []graph.NodeID // sorted
	dead   bool

	parents  map[NodeID]struct{}
	children map[NodeID]struct{}
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Label returns the shared label of the node's extent.
func (n *Node) Label() graph.LabelID { return n.label }

// K returns the node's local similarity value.
func (n *Node) K() int { return n.k }

// Extent returns the node's extent, sorted ascending. The slice aliases
// internal storage and must not be modified.
func (n *Node) Extent() []graph.NodeID { return n.extent }

// Size returns the extent size.
func (n *Node) Size() int { return len(n.extent) }

// Dead reports whether the node has been retired by a split.
func (n *Node) Dead() bool { return n.dead }

// Graph is a mutable structural index over a fixed data graph.
type Graph struct {
	data   *graph.Graph
	nodes  []*Node // indexed by NodeID; dead entries remain for ID stability
	nodeOf []NodeID
	// byLabel maps a label to the set of live index nodes carrying it.
	byLabel map[graph.LabelID]map[NodeID]struct{}

	liveNodes int
	liveEdges int

	// version counts observable mutations (splits and local-similarity
	// changes). Clone preserves it, so a clone whose version still equals
	// its origin's is structurally identical to it — the engine uses this
	// to detect no-op refinements and to re-freeze only dirtied components.
	version uint64
}

// Version returns the graph's mutation counter. Two graphs with a common
// clone ancestry and equal versions are structurally identical.
func (ig *Graph) Version() uint64 { return ig.version }

// FromPartition builds an index graph whose nodes are the blocks of p.
// kOf assigns the local similarity of each block; pass a constant function
// for A(k)-style indexes.
func FromPartition(data *graph.Graph, p *partition.Partition, kOf func(partition.BlockID) int) *Graph {
	ig := &Graph{
		data:    data,
		nodeOf:  make([]NodeID, data.NumNodes()),
		byLabel: make(map[graph.LabelID]map[NodeID]struct{}),
	}
	for b, extent := range p.Blocks() {
		ig.attachNode(data.Label(extent[0]), kOf(partition.BlockID(b)), extent)
	}
	ig.wireFromData()
	return ig
}

// attachNode allocates the next live node (ID = len(nodes)), registers it in
// the label bucket and the data-node mapping, and bumps the live counter.
// The extent must be sorted; construction and Split share this path.
func (ig *Graph) attachNode(label graph.LabelID, k int, extent []graph.NodeID) *Node {
	n := &Node{
		id:       NodeID(len(ig.nodes)),
		label:    label,
		k:        k,
		extent:   extent,
		parents:  make(map[NodeID]struct{}),
		children: make(map[NodeID]struct{}),
	}
	ig.nodes = append(ig.nodes, n)
	ig.addToLabelBucket(n)
	for _, o := range extent {
		ig.nodeOf[o] = n.id
	}
	ig.liveNodes++
	return n
}

// wireFromData rebuilds the index edge set from the data graph per P2.
// nodeOf must already map every data node to its live index node.
func (ig *Graph) wireFromData() {
	for v := 0; v < ig.data.NumNodes(); v++ {
		from := ig.nodeOf[v]
		for _, c := range ig.data.Children(graph.NodeID(v)) {
			ig.addEdge(from, ig.nodeOf[c])
		}
	}
}

// Data returns the underlying data graph.
func (ig *Graph) Data() *graph.Graph { return ig.data }

// NumNodes returns the number of live index nodes.
func (ig *Graph) NumNodes() int { return ig.liveNodes }

// NumEdges returns the number of live index edges.
func (ig *Graph) NumEdges() int { return ig.liveEdges }

// Node returns the node with the given ID (which may be dead).
func (ig *Graph) Node(id NodeID) *Node { return ig.nodes[id] }

// NodeOf returns the live index node whose extent contains data node o.
func (ig *Graph) NodeOf(o graph.NodeID) *Node { return ig.nodes[ig.nodeOf[o]] }

// Root returns the index node containing the data-graph root.
func (ig *Graph) Root() *Node { return ig.NodeOf(ig.data.Root()) }

// NodesWithLabel returns the live index nodes carrying label l, in ID order.
func (ig *Graph) NodesWithLabel(l graph.LabelID) []*Node {
	bucket := ig.byLabel[l]
	ids := make([]NodeID, 0, len(bucket))
	for id := range bucket {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = ig.nodes[id]
	}
	return out
}

// ForEachNode calls f for every live index node in ID order.
func (ig *Graph) ForEachNode(f func(*Node)) {
	for _, n := range ig.nodes {
		if n != nil && !n.dead {
			f(n)
		}
	}
}

// Parents returns the live parent nodes of n in ID order.
func (ig *Graph) Parents(n *Node) []*Node { return ig.resolve(n.parents) }

// Children returns the live child nodes of n in ID order.
func (ig *Graph) Children(n *Node) []*Node { return ig.resolve(n.children) }

func (ig *Graph) resolve(set map[NodeID]struct{}) []*Node {
	ids := make([]NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*Node, len(ids))
	for i, id := range ids {
		out[i] = ig.nodes[id]
	}
	return out
}

// HasEdge reports whether the index edge (u, v) exists.
func (ig *Graph) HasEdge(u, v *Node) bool {
	_, ok := u.children[v.id]
	return ok
}

// SetK sets the local similarity of n.
func (ig *Graph) SetK(n *Node, k int) {
	if n.k != k {
		n.k = k
		ig.version++
	}
}

func (ig *Graph) addToLabelBucket(n *Node) {
	bucket := ig.byLabel[n.label]
	if bucket == nil {
		bucket = make(map[NodeID]struct{})
		ig.byLabel[n.label] = bucket
	}
	bucket[n.id] = struct{}{}
}

func (ig *Graph) addEdge(from, to NodeID) {
	f := ig.nodes[from]
	if _, ok := f.children[to]; ok {
		return
	}
	f.children[to] = struct{}{}
	ig.nodes[to].parents[from] = struct{}{}
	ig.liveEdges++
}

// Split replaces node w with the given extent pieces, which must be a
// disjoint cover of w's extent (empty pieces are dropped). ks gives the new
// local similarity per piece. Adjacency of the pieces and their neighbors is
// rebuilt from the data graph, preserving P2. It returns the new nodes, in
// piece order. As a convenience, splitting into a single piece keeps the
// node and only updates its k.
func (ig *Graph) Split(w *Node, pieces [][]graph.NodeID, ks []int) []*Node {
	if w.dead {
		//mrlint:allow nopanic caller bug, not a data condition: P1-P3 invariant
		panic("index: split of dead node")
	}
	if len(pieces) != len(ks) {
		//mrlint:allow nopanic caller bug, not a data condition: P1-P3 invariant
		panic("index: pieces/ks length mismatch")
	}
	// Drop empty pieces.
	outPieces := pieces[:0]
	outKs := ks[:0]
	total := 0
	for i, p := range pieces {
		if len(p) == 0 {
			continue
		}
		total += len(p)
		outPieces = append(outPieces, p)
		outKs = append(outKs, ks[i])
	}
	pieces, ks = outPieces, outKs
	if total != len(w.extent) {
		//mrlint:allow nopanic partition-cover invariant P1: pieces must tile the extent
		panic(fmt.Sprintf("index: pieces cover %d of %d extent nodes", total, len(w.extent)))
	}
	if len(pieces) == 1 {
		if w.k != ks[0] {
			w.k = ks[0]
			ig.version++
		}
		return []*Node{w}
	}
	ig.version++

	// Detach w from its neighbors.
	for pid := range w.parents {
		if pid == w.id {
			continue
		}
		delete(ig.nodes[pid].children, w.id)
	}
	for cid := range w.children {
		if cid == w.id {
			continue
		}
		delete(ig.nodes[cid].parents, w.id)
	}
	removed := len(w.parents) + len(w.children)
	if _, self := w.children[w.id]; self {
		removed--
	}
	ig.liveEdges -= removed
	w.dead = true
	delete(ig.byLabel[w.label], w.id)
	ig.liveNodes--

	// Allocate pieces and reassign the data-node mapping first, so that
	// adjacency reconstruction sees the final mapping.
	newNodes := make([]*Node, len(pieces))
	for i, extent := range pieces {
		slices.Sort(extent)
		for _, o := range extent {
			if ig.nodeOf[o] != w.id {
				//mrlint:allow nopanic extent-membership invariant P1; a wrong piece corrupts nodeOf
				panic(fmt.Sprintf("index: piece member %d not in extent of %d (or duplicated)", o, w.id))
			}
		}
		newNodes[i] = ig.attachNode(w.label, ks[i], extent)
	}
	// Rebuild adjacency touching the pieces (both directions).
	for _, n := range newNodes {
		for _, o := range n.extent {
			for _, dp := range ig.data.Parents(o) {
				ig.addEdge(ig.nodeOf[dp], n.id)
			}
			for _, dc := range ig.data.Children(o) {
				ig.addEdge(n.id, ig.nodeOf[dc])
			}
		}
	}
	return newNodes
}

// CountLabel returns the number of live index nodes carrying label l,
// without materializing them; query planners use it as a cardinality
// estimate.
func (ig *Graph) CountLabel(l graph.LabelID) int { return len(ig.byLabel[l]) }
