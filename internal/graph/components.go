package graph

import "fmt"

// WeakComponents returns the weakly-connected components of g: the node
// sets connected by edges of either direction and either kind. Components
// are ordered by their smallest member and each component's nodes are
// sorted ascending, so the result is deterministic for a given graph.
//
// XML corpora loaded as one graph (several documents side by side, each a
// tree plus reference edges) decompose into one component per document;
// path-expression semantics never cross a component boundary — traversal
// follows child edges and validation follows parent edges, both of which
// stay inside the component — which makes components the natural unit of
// sharding (package shard).
func (g *Graph) WeakComponents() [][]NodeID {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
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
		for _, c := range g.Children(NodeID(v)) {
			union(int32(v), int32(c))
		}
	}
	// A root is its component's smallest member, so an ascending scan meets
	// it first: it opens the component's slot, later members find it.
	slot := make([]int32, n)
	var out [][]NodeID
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if r == int32(v) {
			slot[v] = int32(len(out))
			out = append(out, nil)
		}
		out[slot[r]] = append(out[slot[r]], NodeID(v))
	}
	return out
}

// Induce builds the node-induced subgraph of g on nodes, which must be
// sorted ascending without duplicates and closed under g's edges (no edge
// may cross the boundary of the set — true for any union of weak
// components). Local node i of the result is nodes[i]; the label table is
// shared with g, so LabelIDs are interchangeable between the two graphs.
// Local IDs are monotone in global IDs, so child lists stay strictly
// ascending and the derived parent lists keep g's ascending order.
//
// Unlike Builder.Freeze, Induce does not require local node 0 to have
// in-degree 0: a non-root component has no distinguished entry point, and
// rooted path expressions are only ever evaluated on the subgraph that
// actually contains g's root.
func (g *Graph) Induce(nodes []NodeID) (*Graph, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("graph: induce: empty node set")
	}
	local := make([]int32, g.NumNodes())
	for i := range local {
		local[i] = -1
	}
	n := len(nodes)
	nodeLabel := make([]LabelID, n)
	childStart := make([]int32, n+1)
	for i, v := range nodes {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("graph: induce: node %d out of range (n=%d)", v, g.NumNodes())
		}
		if i > 0 && nodes[i-1] >= v {
			return nil, fmt.Errorf("graph: induce: nodes not sorted/unique at %d: %d after %d", i, v, nodes[i-1])
		}
		local[v] = int32(i)
		nodeLabel[i] = g.nodeLabel[v]
		childStart[i+1] = childStart[i] + int32(g.OutDegree(v))
	}
	children := make([]NodeID, childStart[n])
	childKind := make([]EdgeKind, childStart[n])
	for i, v := range nodes {
		at := childStart[i]
		copy(childKind[at:], g.ChildKinds(v))
		for j, c := range g.Children(v) {
			if local[c] < 0 {
				return nil, fmt.Errorf("graph: induce: edge %d->%d leaves the node set", v, c)
			}
			children[int(at)+j] = NodeID(local[c])
		}
	}
	return newGraph(g.labels, g.labelIDs, nodeLabel, childStart, children, childKind), nil
}
