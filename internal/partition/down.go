package partition

import (
	"encoding/binary"
	"slices"

	"mrx/internal/graph"
)

// RefineOnceDown is the downward counterpart of RefineOnce: every block is
// split by the set of blocks the node's *children* occupy. Iterating it from
// the label partition computes l-down-bisimilarity, the dual notion used by
// the UD(k,l)-index: nodes in the same block share all outgoing label paths
// of length up to l.
func RefineOnceDown(g *graph.Graph, p *Partition) (*Partition, bool) {
	next := &Partition{blockOf: make([]BlockID, g.NumNodes())}
	sigID := make(map[string]BlockID, p.num*2)
	var sig []byte
	var childBlocks []BlockID

	for v := 0; v < g.NumNodes(); v++ {
		old := p.blockOf[v]
		sig = sig[:0]
		sig = binary.AppendVarint(sig, int64(old))
		childBlocks = childBlocks[:0]
		for _, c := range g.Children(graph.NodeID(v)) {
			childBlocks = append(childBlocks, p.blockOf[c])
		}
		slices.Sort(childBlocks)
		prev := BlockID(-1)
		for _, b := range childBlocks {
			if b != prev {
				sig = binary.AppendVarint(sig, int64(b))
				prev = b
			}
		}
		id, ok := sigID[string(sig)]
		if !ok {
			id = BlockID(next.num)
			next.num++
			sigID[string(sig)] = id
		}
		next.blockOf[v] = id
	}
	return next, next.num != p.num
}

// LBisimDown computes the l-down-bisimilarity partition: l downward
// refinement rounds from the label partition.
func LBisimDown(g *graph.Graph, l int) *Partition {
	p := ByLabel(g)
	for i := 0; i < l; i++ {
		next, changed := RefineOnceDown(g, p)
		p = next
		if !changed {
			break
		}
	}
	return p
}

// Intersect returns the common refinement of two partitions over the same
// node set: u and v share a block iff they share a block in both inputs.
// This is how the UD(k,l)-index combines upward and downward bisimilarity.
func Intersect(a, b *Partition) *Partition {
	type pair struct{ x, y BlockID }
	ids := make(map[pair]BlockID)
	out := &Partition{blockOf: make([]BlockID, len(a.blockOf))}
	for v := range a.blockOf {
		key := pair{a.blockOf[v], b.blockOf[v]}
		id, ok := ids[key]
		if !ok {
			id = BlockID(out.num)
			out.num++
			ids[key] = id
		}
		out.blockOf[v] = id
	}
	return out
}
