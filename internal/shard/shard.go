// Package shard partitions a data graph into shard-local subgraphs along
// weakly-connected component boundaries and owns the shard-local M*(k)
// snapshot lifecycle the sharded engine serves from.
//
// The seam is semantic, not heuristic: simple path expressions traverse
// child edges and validate along parent edges, so no instance of an
// expression ever crosses a weak component. Partitioning components across
// shards therefore preserves answers exactly — a query evaluates on each
// shard's private M*(k)-index and the shard answers union (disjointly) to
// the monolithic answer. What changes is the unit of concurrency: each
// shard has its own mutable index, its own frozen CSR snapshot, its own
// write lock and its own generation counter, so refinements on different
// shards proceed in parallel, freezes fan out across a bounded worker
// pool, and a publish swaps one shard's atomic pointer without touching
// the others.
//
// Assignment policy (Partition): components at least as large as the
// average shard would be get a shard chosen by current load (big
// components dominate whatever shard they land on, so spreading them by
// load is what balances the fleet); smaller components are packed by a
// hashed label-path signature, which keeps structurally similar documents
// together deterministically without measuring them.
package shard

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"mrx/internal/graph"
	"mrx/internal/pathexpr"
)

// Shard is one partition of the data graph: a union of weakly-connected
// components, materialized as an induced subgraph with dense local node
// IDs. Local node i corresponds to global node ToGlobal(i); the mapping is
// ascending, so a locally sorted answer maps to a globally sorted one.
// A shard that owns the whole graph is the graph itself: Local returns the
// parent graph and ToGlobal is the identity. Shards are immutable after
// Partition.
type Shard struct {
	id         int
	local      *graph.Graph
	toGlobal   []graph.NodeID // nil for the whole-graph shard (identity)
	hasRoot    bool
	components int
	labelHas   []bool // indexed by the shared (global) LabelID space
}

// ID returns the shard's index in the partition, 0..NumShards-1.
func (s *Shard) ID() int { return s.id }

// Local returns the shard's induced subgraph. Its label table is shared
// with the parent graph, so LabelIDs are interchangeable.
func (s *Shard) Local() *graph.Graph { return s.local }

// NumNodes returns the number of data nodes owned by the shard.
func (s *Shard) NumNodes() int { return s.local.NumNodes() }

// Components returns how many weak components were packed into the shard.
func (s *Shard) Components() int { return s.components }

// HasRoot reports whether the shard owns the parent graph's root (global
// node 0). Exactly one shard does; rooted expressions route only to it,
// and there the global root is local node 0, preserving rooted semantics.
func (s *Shard) HasRoot() bool { return s.hasRoot }

// ToGlobal maps a local node ID back to the parent graph's ID.
func (s *Shard) ToGlobal(v graph.NodeID) graph.NodeID {
	if s.toGlobal == nil {
		return v
	}
	return s.toGlobal[v]
}

// Covers reports whether e can possibly match inside the shard: a rooted
// expression needs the shard that owns the root, and every non-wildcard
// step label must label at least one of the shard's nodes (each step of an
// instance matches one node, so one absent label empties the answer). The
// scatter planner prunes shards that fail this test without evaluating
// them.
func (s *Shard) Covers(e *pathexpr.Expr) bool {
	if e.Rooted && !s.hasRoot {
		return false
	}
	for _, st := range e.Steps {
		if st.Wildcard {
			continue
		}
		l, ok := s.local.LabelIDOf(st.Label)
		if !ok || !s.labelHas[l] {
			return false
		}
	}
	return true
}

// Partition splits g into at most n shards along weak component
// boundaries. The shard count is clamped to the component count (a
// component is indivisible here), so the result may be shorter than n;
// it always has at least one shard. Shard 0's first component is the one
// owning global node 0, keeping the root at local node 0 of its shard.
// When the clamped count is 1 the single shard is g itself: nothing is
// copied, hashed or renumbered.
func Partition(g *graph.Graph, n int) ([]*Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: partition into %d shards", n)
	}
	comps := g.WeakComponents()
	if n > len(comps) {
		n = len(comps)
	}
	if n <= 1 {
		return []*Shard{newShard(0, g, nil, len(comps))}, nil
	}

	// Deterministic assignment order: big components first (load placement
	// depends on what was placed before), ties by smallest member.
	order := make([]int, len(comps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := comps[order[a]], comps[order[b]]
		if len(ca) != len(cb) {
			return len(ca) > len(cb)
		}
		return ca[0] < cb[0]
	})

	threshold := (g.NumNodes() + n - 1) / n
	load := make([]int, n)
	assigned := make([][]int, n) // shard -> component indexes
	for oi, ci := range order {
		c := comps[ci]
		var s int
		switch {
		case n == len(comps):
			// As many shards as components: one each, no packing needed.
			s = oi
		case len(c) >= threshold:
			// Large: place by load, lowest shard index on ties.
			for i := 1; i < n; i++ {
				if load[i] < load[s] {
					s = i
				}
			}
		default:
			// Small: pack by hashed label-path signature.
			s = int(signature(g, c) % uint64(n))
		}
		load[s] += len(c)
		assigned[s] = append(assigned[s], ci)
	}

	// The shard that owns global node 0 becomes shard 0, so the root lives
	// at (shard 0, local 0) — the convention rooted evaluation relies on.
	rootShard := 0
	for s := range assigned {
		for _, ci := range assigned[s] {
			if comps[ci][0] == 0 {
				rootShard = s
			}
		}
	}
	assigned[0], assigned[rootShard] = assigned[rootShard], assigned[0]
	load[0], load[rootShard] = load[rootShard], load[0]

	// Mark every node with its shard, then deal the nodes out in one
	// ascending scan, so each member list comes out sorted.
	owner := make([]int32, g.NumNodes())
	members := make([][]graph.NodeID, n)
	for s, cis := range assigned {
		members[s] = make([]graph.NodeID, 0, load[s])
		for _, ci := range cis {
			for _, v := range comps[ci] {
				owner[v] = int32(s)
			}
		}
	}
	for v, s := range owner {
		members[s] = append(members[s], graph.NodeID(v))
	}

	out := make([]*Shard, 0, n)
	for s, nodes := range members {
		if len(nodes) == 0 {
			continue // a hash bucket nothing landed in
		}
		local, err := g.Induce(nodes)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		out = append(out, newShard(len(out), local, nodes, len(assigned[s])))
	}
	return out, nil
}

// newShard wraps a shard-local graph; toGlobal nil means local is the whole
// parent graph. It records which labels occur, for Covers.
func newShard(id int, local *graph.Graph, toGlobal []graph.NodeID, components int) *Shard {
	sh := &Shard{
		id:         id,
		local:      local,
		toGlobal:   toGlobal,
		hasRoot:    toGlobal == nil || toGlobal[0] == 0,
		components: components,
		labelHas:   make([]bool, local.NumLabels()),
	}
	for v := 0; v < local.NumNodes(); v++ {
		sh.labelHas[local.Label(graph.NodeID(v))] = true
	}
	return sh
}

// signature hashes a component's length-one label paths (the set of
// distinct parent-label -> child-label edge pairs, plus its entry labels)
// with FNV-1a in ascending order. Structurally similar documents — same
// schema, different content — collide deliberately, landing in the same
// shard. Only distinct pairs are kept, so memory grows with the schema.
func signature(g *graph.Graph, comp []graph.NodeID) uint64 {
	set := make(map[uint64]struct{})
	for _, v := range comp {
		lv := uint64(g.Label(v))
		if len(g.Parents(v)) == 0 {
			set[lv] = struct{}{} // entry label, no parent side
		}
		for _, c := range g.Children(v) {
			set[(lv+1)<<32|uint64(g.Label(c))] = struct{}{}
		}
	}
	pairs := slices.Sorted(maps.Keys(set))
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range pairs {
		for b := 0; b < 8; b++ {
			h ^= (p >> (8 * b)) & 0xff
			h *= prime64
		}
	}
	return h
}
