package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Builder accumulates nodes and edges and produces a compact Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	labels   []string
	labelIDs map[string]LabelID
	nodeLbl  []LabelID
	edges    []Edge
	frozen   bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{labelIDs: make(map[string]LabelID)}
}

// Label interns a label and returns its ID.
func (b *Builder) Label(name string) LabelID {
	if id, ok := b.labelIDs[name]; ok {
		return id
	}
	id := LabelID(len(b.labels))
	b.labels = append(b.labels, name)
	b.labelIDs[name] = id
	return id
}

// AddNode creates a node with the given label and returns its ID.
// The first node added becomes the root.
func (b *Builder) AddNode(label string) NodeID {
	id := NodeID(len(b.nodeLbl))
	b.nodeLbl = append(b.nodeLbl, b.Label(label))
	return id
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLbl) }

// AddEdge adds a directed edge from parent to child.
func (b *Builder) AddEdge(from, to NodeID, kind EdgeKind) {
	b.edges = append(b.edges, Edge{From: from, To: to, Kind: kind})
}

// Freeze validates the accumulated structure and returns the compact Graph.
// It fails if the graph is empty, an edge endpoint is out of range, or an
// edge points at the root (node 0 must have in-degree 0 so it is the unique
// entry point for rooted path expressions).
func (b *Builder) Freeze() (*Graph, error) {
	if b.frozen {
		return nil, errors.New("graph: builder already frozen")
	}
	n := len(b.nodeLbl)
	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.To == 0 {
			return nil, fmt.Errorf("graph: edge %d->0 targets the root", e.From)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.From)
		}
	}
	b.frozen = true

	// Sort edges by (From, To) for deterministic CSR layout; keep duplicates
	// out (parallel edges add nothing to bisimilarity or path semantics).
	// A caller that adds edges in order pays one check instead of a sort.
	byEndpoints := func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To), cmp.Compare(x.Kind, y.Kind))
	}
	if !slices.IsSortedFunc(b.edges, byEndpoints) {
		slices.SortFunc(b.edges, byEndpoints)
	}
	edges := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e.From == b.edges[i-1].From && e.To == b.edges[i-1].To {
			continue
		}
		edges = append(edges, e)
	}

	childStart := make([]int32, n+1)
	children := make([]NodeID, len(edges))
	childKind := make([]EdgeKind, len(edges))
	for i, e := range edges {
		childStart[e.From+1]++
		children[i] = e.To
		childKind[i] = e.Kind
	}
	for i := 0; i < n; i++ {
		childStart[i+1] += childStart[i]
	}
	return newGraph(b.labels, b.labelIDs, b.nodeLbl, childStart, children, childKind), nil
}
