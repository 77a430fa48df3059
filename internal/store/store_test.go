package store

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
)

func roundTripGraph(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// graphsEqual reports whether a and b have the same nodes, label table,
// LabelIDs, child lists and edge kinds.
func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.NumRefEdges() != b.NumRefEdges() {
		return false
	}
	if !sameLabelIDs(a, b) {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		if !reflect.DeepEqual(a.Children(graph.NodeID(v)), b.Children(graph.NodeID(v))) {
			return false
		}
		if !reflect.DeepEqual(a.ChildKinds(graph.NodeID(v)), b.ChildKinds(graph.NodeID(v))) {
			return false
		}
	}
	return true
}

// A round trip keeps every LabelID, including labels interned ahead of the
// nodes that use them and labels no node uses: a snapshot published against
// the original graph must meet the same LabelIDs after a restart.
func TestGraphRoundTrip(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("r")
	b.Label("unused")
	b.AddNode("a")
	b.AddEdge(0, 1, graph.TreeEdge)
	for name, g := range map[string]*graph.Graph{
		"figure1":      graph.PaperFigure1(),
		"figure7":      graph.PaperFigure7(),
		"random":       gtest.Random(3, 200, 6, 0.3),
		"xmark":        datagen.XMarkGraph(0.01, 1),
		"unused label": mustFreeze(b),
	} {
		if !graphsEqual(g, roundTripGraph(t, g)) {
			t.Errorf("%s: round trip changed the graph", name)
		}
	}
}

func TestGraphReadErrors(t *testing.T) {
	if _, err := ReadGraph(strings.NewReader("junk")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadGraph(strings.NewReader(graphMagic)); err == nil {
		t.Error("truncated file accepted")
	}
	// Two table entries named "a": LabelIDOf could name only one of them.
	dup := graphMagic + "\x02\x01a\x01a\x01\x00\x00"
	if _, err := ReadGraph(strings.NewReader(dup)); err == nil {
		t.Error("duplicate label names accepted")
	}
}
