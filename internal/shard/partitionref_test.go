package shard

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
)

// The restart path as it was before it went linear: graph.WeakComponents
// with a map of slots, graph.Induce with a per-node sort of its parent
// lists, signature with a reflection sort of every edge pair, and Partition
// concatenating and sorting component lists. They are kept verbatim,
// except that they read the graph through its exported accessors and build
// plain arrays instead of graphs and shards, as the oracle for
// TestPartitionMatchesReference.

// refShard is what refPartition decides for one shard; local is nil for
// the whole-graph shard.
type refShard struct {
	nodes      []graph.NodeID
	components int
	local      *refGraph
}

// refGraph holds the arrays graph.Induce used to fill.
type refGraph struct {
	nodeLabel   []graph.LabelID
	childStart  []int32
	children    []graph.NodeID
	childKind   []graph.EdgeKind
	parentStart []int32
	parents     []graph.NodeID
	numEdges    int
	numRef      int
}

func refPartition(g *graph.Graph, n int) ([]refShard, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: partition into %d shards", n)
	}
	comps := refWeakComponents(g)
	if n > len(comps) {
		n = len(comps)
	}
	if n <= 1 {
		return []refShard{{components: len(comps)}}, nil
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
			s = int(refSignature(g, c) % uint64(n))
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

	out := make([]refShard, 0, n)
	for s, cis := range assigned {
		if len(cis) == 0 {
			continue // a hash bucket nothing landed in
		}
		var nodes []graph.NodeID
		for _, ci := range cis {
			nodes = append(nodes, comps[ci]...)
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		local, err := refInduce(g, nodes)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		out = append(out, refShard{nodes: nodes, components: len(cis), local: local})
	}
	return out, nil
}

func refSignature(g *graph.Graph, comp []graph.NodeID) uint64 {
	pairs := make([]uint64, 0, len(comp))
	for _, v := range comp {
		lv := uint64(g.Label(v))
		if len(g.Parents(v)) == 0 {
			pairs = append(pairs, lv) // entry label, no parent side
		}
		for _, c := range g.Children(v) {
			pairs = append(pairs, (lv+1)<<32|uint64(g.Label(c)))
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a] < pairs[b] })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	var prev uint64
	for i, p := range pairs {
		if i > 0 && p == prev {
			continue // multiset -> set: content volume must not move documents
		}
		prev = p
		for b := 0; b < 8; b++ {
			h ^= (p >> (8 * b)) & 0xff
			h *= prime64
		}
	}
	return h
}

func refWeakComponents(g *graph.Graph) [][]graph.NodeID {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra // smaller root wins: component keyed by min member
	}
	for v := 0; v < n; v++ {
		for _, c := range g.Children(graph.NodeID(v)) {
			union(int32(v), int32(c))
		}
	}
	// Bucket nodes by root; iterating v ascending keeps each component
	// sorted and first-seen order keyed by the component's smallest member.
	slot := make(map[int32]int)
	var out [][]graph.NodeID
	for v := 0; v < n; v++ {
		r := find(int32(v))
		i, ok := slot[r]
		if !ok {
			i = len(out)
			slot[r] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], graph.NodeID(v))
	}
	return out
}

func refInduce(g *graph.Graph, nodes []graph.NodeID) (*refGraph, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("graph: induce: empty node set")
	}
	local := make([]int32, g.NumNodes())
	for i := range local {
		local[i] = -1
	}
	for i, v := range nodes {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("graph: induce: node %d out of range (n=%d)", v, g.NumNodes())
		}
		if i > 0 && nodes[i-1] >= v {
			return nil, fmt.Errorf("graph: induce: nodes not sorted/unique at %d: %d after %d", i, v, nodes[i-1])
		}
		local[v] = int32(i)
	}

	n := len(nodes)
	sub := &refGraph{
		nodeLabel: make([]graph.LabelID, n),
	}
	sub.childStart = make([]int32, n+1)
	sub.parentStart = make([]int32, n+1)
	for i, v := range nodes {
		sub.nodeLabel[i] = g.Label(v)
		for _, c := range g.Children(v) {
			if local[c] < 0 {
				return nil, fmt.Errorf("graph: induce: edge %d->%d leaves the node set", v, c)
			}
			sub.childStart[i+1]++
			sub.parentStart[local[c]+1]++
		}
	}
	for i := 0; i < n; i++ {
		sub.childStart[i+1] += sub.childStart[i]
		sub.parentStart[i+1] += sub.parentStart[i]
	}
	sub.numEdges = int(sub.childStart[n])
	sub.children = make([]graph.NodeID, sub.numEdges)
	sub.childKind = make([]graph.EdgeKind, sub.numEdges)
	sub.parents = make([]graph.NodeID, sub.numEdges)
	cpos := make([]int32, n)
	ppos := make([]int32, n)
	for i, v := range nodes {
		kinds := g.ChildKinds(v)
		for j, c := range g.Children(v) {
			lc := local[c]
			ci := sub.childStart[i] + cpos[i]
			sub.children[ci] = graph.NodeID(lc)
			sub.childKind[ci] = kinds[j]
			cpos[i]++
			if kinds[j] == graph.RefEdge {
				sub.numRef++
			}
			pi := sub.parentStart[lc] + ppos[lc]
			sub.parents[pi] = graph.NodeID(i)
			ppos[lc]++
		}
	}
	// Parent adjacency in g is sorted by source; rebuilding it from the
	// child lists of an arbitrary node subset can perturb that order, so
	// restore it per node for deterministic traversal.
	for i := 0; i < n; i++ {
		seg := sub.parents[sub.parentStart[i]:sub.parentStart[i+1]]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
	}
	return sub, nil
}

// sameLocal reports whether the induced graph got holds exactly the arrays
// the reference induced, read back through its accessors.
func sameLocal(got *graph.Graph, want *refGraph) error {
	if got.NumNodes() != len(want.nodeLabel) || got.NumEdges() != want.numEdges || got.NumRefEdges() != want.numRef {
		return fmt.Errorf("shape %d/%d/%d, want %d/%d/%d", got.NumNodes(), got.NumEdges(), got.NumRefEdges(),
			len(want.nodeLabel), want.numEdges, want.numRef)
	}
	for i, l := range want.nodeLabel {
		v := graph.NodeID(i)
		switch {
		case got.Label(v) != l:
			return fmt.Errorf("node %d: label %d, want %d", i, got.Label(v), l)
		case !slices.Equal(got.Children(v), want.children[want.childStart[i]:want.childStart[i+1]]):
			return fmt.Errorf("node %d: children %v, want %v", i, got.Children(v), want.children[want.childStart[i]:want.childStart[i+1]])
		case !slices.Equal(got.ChildKinds(v), want.childKind[want.childStart[i]:want.childStart[i+1]]):
			return fmt.Errorf("node %d: edge kinds differ", i)
		case !slices.Equal(got.Parents(v), want.parents[want.parentStart[i]:want.parentStart[i+1]]):
			return fmt.Errorf("node %d: parents %v, want %v", i, got.Parents(v), want.parents[want.parentStart[i]:want.parentStart[i+1]])
		}
	}
	return nil
}

// Partition must decide exactly what the reference decides for every shard
// count: the same shards in the same order, the same members (ToGlobal),
// component counts and root ownership, and local graphs with identical
// child and parent lists and edge kinds. Every component's signature must
// hash the same.
func TestPartitionMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, scale := range []float64{0.02, 0.05} {
		g, err := datagen.CorpusGraph(scale, 3, 12)
		if err != nil {
			t.Fatalf("CorpusGraph(%v): %v", scale, err)
		}
		graphs[fmt.Sprintf("corpus@%v", scale)] = g
	}
	for _, shape := range []gtest.Shape{gtest.Cyclic, gtest.Tree, gtest.DAG} {
		graphs["gtest/"+shape.String()] = gtest.New(int64(shape)+5, gtest.Options{
			Nodes: 600, Labels: 6, RefProb: 0.15, Shape: shape, Skew: 1, Components: 3 + 4*int(shape),
		})
	}
	graphs["gtest/single"] = gtest.New(2, gtest.Options{Nodes: 200, Labels: 4, RefProb: 0.2})
	for name, g := range graphs {
		for _, c := range refWeakComponents(g) {
			if got, want := signature(g, c), refSignature(g, c); got != want {
				t.Fatalf("%s: component at %d: signature %x, reference %x", name, c[0], got, want)
			}
		}
		for n := 1; n <= 8; n++ {
			shards := mustPartition(t, g, n)
			want, err := refPartition(g, n)
			if err != nil {
				t.Fatalf("%s n=%d: reference: %v", name, n, err)
			}
			if len(shards) != len(want) {
				t.Fatalf("%s n=%d: %d shards, reference %d", name, n, len(shards), len(want))
			}
			for i, sh := range shards {
				w := want[i]
				if sh.Components() != w.components {
					t.Fatalf("%s n=%d shard %d: %d components, reference %d", name, n, i, sh.Components(), w.components)
				}
				if w.local == nil {
					if sh.Local() != g || sh.ToGlobal(graph.NodeID(g.NumNodes()-1)) != graph.NodeID(g.NumNodes()-1) {
						t.Fatalf("%s n=%d: whole-graph shard is not the graph itself", name, n)
					}
					continue
				}
				if sh.NumNodes() != len(w.nodes) || sh.HasRoot() != (w.nodes[0] == 0) {
					t.Fatalf("%s n=%d shard %d: %d nodes (root %v), reference %d", name, n, i, sh.NumNodes(), sh.HasRoot(), len(w.nodes))
				}
				for v, gv := range w.nodes {
					if sh.ToGlobal(graph.NodeID(v)) != gv {
						t.Fatalf("%s n=%d shard %d: ToGlobal(%d) = %d, reference %d", name, n, i, v, sh.ToGlobal(graph.NodeID(v)), gv)
					}
				}
				if err := sameLocal(sh.Local(), w.local); err != nil {
					t.Fatalf("%s n=%d shard %d: %v", name, n, i, err)
				}
			}
		}
	}
}
