// Package graph implements the labeled directed data-graph model used by
// structural XML indexes.
//
// An XML document is represented as a labeled directed graph
// G = (V, E, root, Σ): each element (node) has a string label drawn from the
// alphabet Σ; nesting produces regular parent→child edges; ID/IDREF
// attributes produce reference edges. Both edge kinds participate in
// bisimilarity, exactly as in He & Yang (ICDE 2004) and its predecessors.
//
// Labels are interned to small integer IDs so that partition-refinement and
// index construction never compare strings in inner loops.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a data node. IDs are dense: 0..NumNodes()-1.
// The root is always node 0.
type NodeID int32

// LabelID identifies an interned label. IDs are dense: 0..NumLabels()-1.
type LabelID int32

// EdgeKind distinguishes containment edges from ID/IDREF reference edges.
// Both kinds are traversed identically by path expressions and bisimulation;
// the distinction is kept for provenance, statistics and export.
type EdgeKind uint8

const (
	// TreeEdge is a regular parent-child containment edge.
	TreeEdge EdgeKind = iota
	// RefEdge is a reference edge created from an ID/IDREF(S) pair.
	RefEdge
)

func (k EdgeKind) String() string {
	switch k {
	case TreeEdge:
		return "tree"
	case RefEdge:
		return "ref"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is a directed edge of the data graph.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is an immutable-after-Freeze labeled directed graph.
//
// Build one with NewBuilder (or helpers in packages xmlload and datagen),
// add nodes and edges, then call Freeze to obtain the compact adjacency
// representation the index packages rely on.
type Graph struct {
	labels    []string           // LabelID -> label text
	labelIDs  map[string]LabelID // label text -> LabelID
	nodeLabel []LabelID          // NodeID -> LabelID

	// Compact CSR-style adjacency. childStart has len = numNodes+1 and
	// children[childStart[v]:childStart[v+1]] are v's successors; same for
	// parents. Edge kinds are stored parallel to children.
	childStart  []int32
	children    []NodeID
	childKind   []EdgeKind
	parentStart []int32
	parents     []NodeID

	numEdges int
	numRef   int
}

// newGraph wires a Graph around its child CSR, each child list strictly
// ascending; Freeze, Induce and FromCSR all build through it. The parent
// CSR is the counting Transpose of the child CSR, so every parent list
// comes out ascending.
func newGraph(labels []string, labelIDs map[string]LabelID, nodeLabel []LabelID, childStart []int32, children []NodeID, childKind []EdgeKind) *Graph {
	g := &Graph{
		labels:     labels,
		labelIDs:   labelIDs,
		nodeLabel:  nodeLabel,
		childStart: childStart,
		children:   children,
		childKind:  childKind,
		numEdges:   len(children),
	}
	for _, k := range childKind {
		if k == RefEdge {
			g.numRef++
		}
	}
	g.parentStart, g.parents = Transpose(childStart, children)
	return g
}

// Transpose reverses a CSR adjacency over len(start)-1 nodes: adj[start[v]:
// start[v+1]] are v's out-neighbours, and the result lists every node's
// in-neighbours the same way. It is a counting transpose that visits
// sources in ascending order, appending each to its targets' lists, so
// every returned list is ascending whatever the order of the input lists.
func Transpose[ID ~int32](start []int32, adj []ID) ([]int32, []ID) {
	n := len(start) - 1
	// Counting c's in-degree at rstart[c+2] makes rstart[c+1] c's first
	// slot after the prefix sum; the fill advances it to c's end, which is
	// c+1's start, so rstart[:n+1] ends up as the reversed offsets.
	rstart := make([]int32, n+2)
	for _, c := range adj {
		rstart[c+2]++
	}
	for i := 2; i < n+2; i++ {
		rstart[i] += rstart[i-1]
	}
	radj := make([]ID, len(adj))
	for v := 0; v < n; v++ {
		for _, c := range adj[start[v]:start[v+1]] {
			radj[rstart[c+1]] = ID(v)
			rstart[c+1]++
		}
	}
	return rstart[:n+1], radj
}

// FromCSR builds a graph, keeping the slices, from a label table whose
// entry l names LabelID l (no name twice), each node's label, and the child
// CSR: children[childStart[v]:childStart[v+1]] are v's successors, with
// childKind parallel. The caller checks that labels are in the table and
// what Freeze checks of edges: in range, never into the root or v itself,
// and here also strictly ascending.
func FromCSR(labels []string, nodeLabel []LabelID, childStart []int32, children []NodeID, childKind []EdgeKind) (*Graph, error) {
	if len(nodeLabel) == 0 {
		return nil, errors.New("graph: empty graph")
	}
	labelIDs := make(map[string]LabelID, len(labels))
	for l, name := range labels {
		if _, dup := labelIDs[name]; dup {
			return nil, fmt.Errorf("graph: duplicate label name %q", name)
		}
		labelIDs[name] = LabelID(l)
	}
	return newGraph(labels, labelIDs, nodeLabel, childStart, children, childKind), nil
}

// NumNodes returns the number of data nodes.
func (g *Graph) NumNodes() int { return len(g.nodeLabel) }

// NumEdges returns the number of edges (tree + reference).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumRefEdges returns the number of reference edges.
func (g *Graph) NumRefEdges() int { return g.numRef }

// NumLabels returns the number of distinct labels.
func (g *Graph) NumLabels() int { return len(g.labels) }

// Root returns the root node, which is always NodeID 0.
func (g *Graph) Root() NodeID { return 0 }

// Label returns the label ID of node v.
func (g *Graph) Label(v NodeID) LabelID { return g.nodeLabel[v] }

// LabelName returns the text of label l.
func (g *Graph) LabelName(l LabelID) string { return g.labels[l] }

// NodeLabelName returns the label text of node v.
func (g *Graph) NodeLabelName(v NodeID) string { return g.labels[g.nodeLabel[v]] }

// LabelIDOf returns the ID for a label text, and whether it exists.
func (g *Graph) LabelIDOf(name string) (LabelID, bool) {
	id, ok := g.labelIDs[name]
	return id, ok
}

// Children returns the successors of v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Children(v NodeID) []NodeID {
	return g.children[g.childStart[v]:g.childStart[v+1]]
}

// ChildKinds returns the edge kinds parallel to Children(v).
func (g *Graph) ChildKinds(v NodeID) []EdgeKind {
	return g.childKind[g.childStart[v]:g.childStart[v+1]]
}

// Parents returns the predecessors of v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) Parents(v NodeID) []NodeID {
	return g.parents[g.parentStart[v]:g.parentStart[v+1]]
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.childStart[v+1] - g.childStart[v])
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	return int(g.parentStart[v+1] - g.parentStart[v])
}

// Succ returns the set of nodes that are children of some node in s,
// sorted and deduplicated. This is the Succ(·) operator of the paper.
func (g *Graph) Succ(s []NodeID) []NodeID {
	var out []NodeID
	for _, v := range s {
		out = append(out, g.Children(v)...)
	}
	return dedupe(out)
}

// Pred returns the set of nodes that are parents of some node in s,
// sorted and deduplicated. This is the Pred(·) operator of the paper.
func (g *Graph) Pred(s []NodeID) []NodeID {
	var out []NodeID
	for _, v := range s {
		out = append(out, g.Parents(v)...)
	}
	return dedupe(out)
}

// LabelCounts returns, for each label, the number of nodes carrying it.
func (g *Graph) LabelCounts() []int {
	counts := make([]int, len(g.labels))
	for _, l := range g.nodeLabel {
		counts[l]++
	}
	return counts
}

// NodesWithLabel returns all nodes carrying label l, in ID order.
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	var out []NodeID
	for v, lv := range g.nodeLabel {
		if lv == l {
			out = append(out, NodeID(v))
		}
	}
	return out
}

func dedupe(s []NodeID) []NodeID {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
