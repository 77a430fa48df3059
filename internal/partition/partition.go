// Package partition implements partition refinement over data graphs,
// the machinery underlying all bisimilarity-based structural indexes.
//
// The central notion is k-bisimilarity (Definition 2 of He & Yang, ICDE
// 2004, originally from the A(k)-index paper):
//
//	u ≈0 v  iff  label(u) = label(v)
//	u ≈k v  iff  u ≈(k-1) v and the parents of u and v match pairwise
//	             under ≈(k-1)
//
// A partition assigns every data node to a block; the blocks of the
// k-bisimilarity partition become the extents of A(k)-index nodes. Each
// refinement round splits blocks by the set of blocks their parents occupy,
// using hashed signatures, so a round costs O(V + E).
//
// Rounds support freezing: a frozen block is copied unchanged into the next
// partition. D(k)-index construction freezes blocks whose label has reached
// its workload-assigned local-similarity requirement.
package partition

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"mrx/internal/graph"
)

// BlockID identifies a block within one Partition. IDs are dense.
type BlockID int32

// Partition maps every data node to a block.
type Partition struct {
	blockOf []BlockID
	num     int
}

// NumBlocks returns the number of blocks.
func (p *Partition) NumBlocks() int { return p.num }

// NumNodes returns the number of data nodes covered.
func (p *Partition) NumNodes() int { return len(p.blockOf) }

// BlockOf returns the block containing data node v.
func (p *Partition) BlockOf(v graph.NodeID) BlockID { return p.blockOf[v] }

// Blocks materializes the blocks as sorted node slices, indexed by BlockID.
func (p *Partition) Blocks() [][]graph.NodeID {
	out := make([][]graph.NodeID, p.num)
	for v, b := range p.blockOf {
		out[b] = append(out[b], graph.NodeID(v))
	}
	return out
}

// BlockSizes returns the size of each block.
func (p *Partition) BlockSizes() []int {
	out := make([]int, p.num)
	for _, b := range p.blockOf {
		out[b]++
	}
	return out
}

// SameBlock reports whether u and v share a block.
func (p *Partition) SameBlock(u, v graph.NodeID) bool {
	return p.blockOf[u] == p.blockOf[v]
}

// Clone returns a deep copy of p.
func (p *Partition) Clone() *Partition {
	c := &Partition{blockOf: make([]BlockID, len(p.blockOf)), num: p.num}
	copy(c.blockOf, p.blockOf)
	return c
}

// ByLabel returns the 0-bisimilarity partition: nodes grouped by label.
// Block IDs equal label IDs restricted to labels that occur, renumbered
// densely in label-ID order.
func ByLabel(g *graph.Graph) *Partition {
	remap := make([]BlockID, g.NumLabels())
	for i := range remap {
		remap[i] = -1
	}
	p := &Partition{blockOf: make([]BlockID, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		l := g.Label(graph.NodeID(v))
		if remap[l] < 0 {
			remap[l] = BlockID(p.num)
			p.num++
		}
		p.blockOf[v] = remap[l]
	}
	return p
}

// RefineOnce computes one refinement round: every non-frozen block of p is
// split by the set of p-blocks of each node's parents. frozen may be nil,
// meaning no block is frozen. It returns the refined partition and whether
// any block actually split.
//
// Block IDs in the result are assigned in order of first appearance when
// scanning nodes in ID order, so results are deterministic — including
// under the parallel signature computation used for large graphs.
func RefineOnce(g *graph.Graph, p *Partition, frozen func(BlockID) bool) (*Partition, bool) {
	n := g.NumNodes()
	sigs := make([][]byte, n)
	computeRange := func(lo, hi int) {
		var parentBlocks []BlockID
		for v := lo; v < hi; v++ {
			old := p.blockOf[v]
			sig := binary.AppendVarint(nil, int64(old))
			if frozen == nil || !frozen(old) {
				parentBlocks = parentBlocks[:0]
				for _, u := range g.Parents(graph.NodeID(v)) {
					parentBlocks = append(parentBlocks, p.blockOf[u])
				}
				slices.Sort(parentBlocks)
				prev := BlockID(-1)
				for _, b := range parentBlocks {
					if b != prev {
						sig = binary.AppendVarint(sig, int64(b))
						prev = b
					}
				}
			}
			sigs[v] = sig
		}
	}

	// Signature computation is read-only and embarrassingly parallel; the
	// ID assignment below stays sequential in node order for determinism.
	const parallelThreshold = 1 << 14
	if workers := runtime.GOMAXPROCS(0); n >= parallelThreshold && workers > 1 {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				computeRange(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		computeRange(0, n)
	}

	next := &Partition{blockOf: make([]BlockID, n)}
	sigID := make(map[string]BlockID, p.num*2)
	for v := 0; v < n; v++ {
		id, ok := sigID[string(sigs[v])]
		if !ok {
			id = BlockID(next.num)
			next.num++
			sigID[string(sigs[v])] = id
		}
		next.blockOf[v] = id
	}
	return next, next.num != p.num
}

// KBisim computes the k-bisimilarity partition of g: k refinement rounds
// starting from the label partition. It stops early (and harmlessly) once a
// round is a fixpoint, since further rounds cannot split anything.
func KBisim(g *graph.Graph, k int) *Partition {
	if k < 0 {
		//mrlint:allow nopanic negative k is a caller bug; every call site passes a validated k
		panic(fmt.Sprintf("partition: negative k %d", k))
	}
	p := ByLabel(g)
	for i := 0; i < k; i++ {
		next, changed := RefineOnce(g, p, nil)
		p = next
		if !changed {
			break
		}
	}
	return p
}

// KBisimAll returns the partitions for every resolution 0..k, i.e.
// out[i] is the i-bisimilarity partition. Once a fixpoint is reached the
// remaining entries share the stable partition.
func KBisimAll(g *graph.Graph, k int) []*Partition {
	out := make([]*Partition, k+1)
	out[0] = ByLabel(g)
	for i := 1; i <= k; i++ {
		next, changed := RefineOnce(g, out[i-1], nil)
		if !changed {
			for j := i; j <= k; j++ {
				out[j] = next
			}
			return out
		}
		out[i] = next
	}
	return out
}

// Bisim computes the full bisimulation partition (the 1-index equivalence):
// refinement to fixpoint. It returns the stable partition and the number of
// rounds it took to stabilize (the graph's "bisimulation depth").
func Bisim(g *graph.Graph) (*Partition, int) {
	p := ByLabel(g)
	rounds := 0
	for {
		next, changed := RefineOnce(g, p, nil)
		if !changed {
			return p, rounds
		}
		p = next
		rounds++
	}
}

// IsRefinementOf reports whether p refines q: every block of p is contained
// in a single block of q. Both must cover the same node set.
func IsRefinementOf(p, q *Partition) bool {
	if len(p.blockOf) != len(q.blockOf) {
		return false
	}
	rep := make(map[BlockID]BlockID, p.num)
	for v, pb := range p.blockOf {
		qb := q.blockOf[v]
		if prev, ok := rep[pb]; ok {
			if prev != qb {
				return false
			}
		} else {
			rep[pb] = qb
		}
	}
	return true
}
