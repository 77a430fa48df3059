package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"mrx/internal/graph"
)

// refReadGraph is ReadGraph as it was before it decoded straight into CSR:
// byte-at-a-time varints through bufio, every edge handed to a
// graph.Builder, and labels re-interned in first-use order, which drops
// unused label-table entries and merges duplicate names. It is the oracle
// FuzzStoreGraph compares against.
func refReadGraph(r io.Reader) (*graph.Graph, error) {
	rd := &reader{r: bufio.NewReader(r)}
	if err := expectMagic(rd, graphMagic); err != nil {
		return nil, fmt.Errorf("store: graph magic: %w", err)
	}
	nLabels, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("store: graph label count: %w", err)
	}
	if nLabels > maxSaneLabels {
		return nil, fmt.Errorf("store: graph label count %d exceeds sanity limit", nLabels)
	}
	labels := make([]string, nLabels)
	for i := range labels {
		if labels[i], err = rd.str(); err != nil {
			return nil, fmt.Errorf("store: graph label %d: %w", i, err)
		}
	}
	nNodes, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("store: graph node count: %w", err)
	}
	if nNodes > maxSaneNodes {
		return nil, fmt.Errorf("store: graph node count %d exceeds sanity limit", nNodes)
	}
	b := graph.NewBuilder()
	for v := uint64(0); v < nNodes; v++ {
		li, err := rd.uvarint()
		if err != nil {
			return nil, fmt.Errorf("store: graph node %d label: %w", v, err)
		}
		if li >= nLabels {
			return nil, fmt.Errorf("store: node %d has label %d out of range", v, li)
		}
		b.AddNode(labels[li])
	}
	for v := uint64(0); v < nNodes; v++ {
		deg, err := rd.uvarint()
		if err != nil {
			return nil, fmt.Errorf("store: graph node %d out-degree: %w", v, err)
		}
		if deg > nNodes {
			return nil, fmt.Errorf("store: node %d has degree %d out of range", v, deg)
		}
		prev := int64(0)
		for i := uint64(0); i < deg; i++ {
			delta, err := rd.uvarint()
			if err != nil {
				return nil, fmt.Errorf("store: graph node %d edges: %w", v, err)
			}
			child := prev + int64(delta)
			prev = child
			if child >= int64(nNodes) {
				return nil, fmt.Errorf("store: node %d has edge to %d, beyond %d nodes", v, child, nNodes)
			}
			kind, err := rd.uvarint()
			if err != nil {
				return nil, fmt.Errorf("store: graph node %d edges: %w", v, err)
			}
			if kind > uint64(graph.RefEdge) {
				return nil, fmt.Errorf("store: bad edge kind %d", kind)
			}
			b.AddEdge(graph.NodeID(v), graph.NodeID(child), graph.EdgeKind(kind))
		}
	}
	return b.Freeze()
}

type reader struct {
	r *bufio.Reader
}

func (rd *reader) uvarint() (uint64, error) { return binary.ReadUvarint(rd.r) }

func expectMagic(rd *reader, magic string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return err
	}
	if string(buf) != magic {
		return fmt.Errorf("store: bad magic %q, want %q", buf, magic)
	}
	return nil
}

// str reads a length-prefixed string; only refReadGraph reads strings.
func (rd *reader) str() (string, error) {
	n, err := rd.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxSaneString {
		return "", fmt.Errorf("store: string of %d bytes exceeds sanity limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// sameStructure reports how a and b differ in nodes, child lists, edge
// kinds, parent lists and edge counters, or nil; labels are left to the
// caller.
func sameStructure(a, b *graph.Graph) error {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.NumRefEdges() != b.NumRefEdges() {
		return fmt.Errorf("shape %d/%d/%d vs %d/%d/%d", a.NumNodes(), a.NumEdges(), a.NumRefEdges(),
			b.NumNodes(), b.NumEdges(), b.NumRefEdges())
	}
	for i := 0; i < a.NumNodes(); i++ {
		v := graph.NodeID(i)
		if !slices.Equal(a.Children(v), b.Children(v)) || !slices.Equal(a.ChildKinds(v), b.ChildKinds(v)) ||
			!slices.Equal(a.Parents(v), b.Parents(v)) {
			return fmt.Errorf("node %d: adjacency differs", i)
		}
	}
	return nil
}

// sameLabelIDs reports whether a and b have the same label table and give
// every node the same LabelID.
func sameLabelIDs(a, b *graph.Graph) bool {
	if a.NumLabels() != b.NumLabels() || a.NumNodes() != b.NumNodes() {
		return false
	}
	for l := 0; l < a.NumLabels(); l++ {
		if a.LabelName(graph.LabelID(l)) != b.LabelName(graph.LabelID(l)) {
			return false
		}
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.Label(graph.NodeID(v)) != b.Label(graph.NodeID(v)) {
			return false
		}
	}
	return true
}

// sameLabelNames reports whether every node of a and b has the same label
// text.
func sameLabelNames(a, b *graph.Graph) bool {
	for v := 0; v < a.NumNodes(); v++ {
		if a.NodeLabelName(graph.NodeID(v)) != b.NodeLabelName(graph.NodeID(v)) {
			return false
		}
	}
	return true
}

// firstUseOrder reports whether g's label table lists each label at the
// position it first occurs in node order, with no unused entry — the one
// table the reference's re-interning leaves unchanged.
func firstUseOrder(g *graph.Graph) bool {
	next := graph.LabelID(0)
	for v := 0; v < g.NumNodes(); v++ {
		switch l := g.Label(graph.NodeID(v)); {
		case l == next:
			next++
		case l > next:
			return false
		}
	}
	return int(next) == g.NumLabels()
}
