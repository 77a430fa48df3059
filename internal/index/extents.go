package index

import (
	"fmt"
	"slices"

	"mrx/internal/graph"
)

// FromExtents reconstructs an index graph from explicit extents and local
// similarities, validating that the extents form a disjoint cover of the
// data nodes and are label-homogeneous. It is the inverse of enumerating
// (Extent, K) pairs with ForEachNode, used by the persistence layer.
// Structural invariants that depend only on shape (P2, counters) are
// rebuilt; semantic ones (P1, P3) can be checked afterwards with Validate.
func FromExtents(data *graph.Graph, extents [][]graph.NodeID, ks []int) (*Graph, error) {
	if len(extents) != len(ks) {
		return nil, fmt.Errorf("index: %d extents but %d k values", len(extents), len(ks))
	}
	ig := &Graph{
		data:    data,
		nodeOf:  make([]NodeID, data.NumNodes()),
		byLabel: make(map[graph.LabelID]map[NodeID]struct{}),
	}
	for i := range ig.nodeOf {
		ig.nodeOf[i] = -1
	}
	for bi, extent := range extents {
		extent, err := checkExtent(data, bi, extent, ks[bi])
		if err != nil {
			return nil, err
		}
		for _, o := range extent {
			if ig.nodeOf[o] != -1 {
				return nil, fmt.Errorf("index: data node %d in two extents", o)
			}
			ig.nodeOf[o] = 0 // provisional; attachNode assigns the real ID
		}
		ig.attachNode(data.Label(extent[0]), ks[bi], extent)
	}
	for v := 0; v < data.NumNodes(); v++ {
		if ig.nodeOf[v] == -1 {
			return nil, fmt.Errorf("index: data node %d not covered by any extent", v)
		}
	}
	ig.wireFromData()
	return ig, nil
}

// checkExtent validates one externally supplied extent — non-empty,
// non-negative k, data-node IDs in range, label-homogeneous — and returns a
// sorted private copy. FromExtents and FrozenFromExtents share it so the
// mutable and frozen loaders cannot drift in what they accept.
func checkExtent(data *graph.Graph, bi int, extent []graph.NodeID, k int) ([]graph.NodeID, error) {
	if len(extent) == 0 {
		return nil, fmt.Errorf("index: extent %d is empty", bi)
	}
	if k < 0 {
		return nil, fmt.Errorf("index: extent %d has negative k", bi)
	}
	extent = append([]graph.NodeID(nil), extent...)
	slices.Sort(extent)
	// Range-check before the first Label call: extents read from untrusted
	// (possibly corrupted) files reach here unvalidated.
	for _, o := range extent {
		if o < 0 || int(o) >= data.NumNodes() {
			return nil, fmt.Errorf("index: extent %d references data node %d out of range", bi, o)
		}
	}
	label := data.Label(extent[0])
	for _, o := range extent[1:] {
		if data.Label(o) != label {
			return nil, fmt.Errorf("index: extent %d mixes labels", bi)
		}
	}
	return extent, nil
}
