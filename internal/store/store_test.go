package store

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mrx/internal/baseline"
	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
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

func TestIndexRoundTrip(t *testing.T) {
	g := datagen.XMarkGraph(0.01, 2)
	for name, ig := range map[string]*index.Graph{
		"a2": baseline.AK(g, 2),
		"a0": baseline.AK(g, 0),
	} {
		var buf bytes.Buffer
		if err := WriteIndex(&buf, ig); err != nil {
			t.Fatal(err)
		}
		got, err := ReadIndex(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(true); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumNodes() != ig.NumNodes() || got.NumEdges() != ig.NumEdges() {
			t.Errorf("%s: sizes changed: %d/%d -> %d/%d", name,
				ig.NumNodes(), ig.NumEdges(), got.NumNodes(), got.NumEdges())
		}
		e := mustParse("//open_auction/bidder")
		if !reflect.DeepEqual(query.EvalIndex(got, e).Answer, query.EvalIndex(ig, e).Answer) {
			t.Errorf("%s: answers differ after round trip", name)
		}
	}
}

func TestIndexGraphMismatch(t *testing.T) {
	g := datagen.XMarkGraph(0.01, 2)
	other := graph.PaperFigure1()
	var buf bytes.Buffer
	if err := WriteIndex(&buf, baseline.AK(g, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(&buf, other); err == nil {
		t.Error("index loaded over wrong graph")
	}
}

func TestMKIndexRoundTrip(t *testing.T) {
	g := gtest.Random(5, 150, 5, 0.25)
	mk := core.NewMK(g)
	for _, s := range []string{"//l0/l1/l2", "//l3/l4"} {
		mk.Support(mustParse(s))
	}
	var buf bytes.Buffer
	if err := WriteIndex(&buf, mk.Index()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(true); err != nil {
		t.Fatal(err)
	}
	e := mustParse("//l0/l1/l2")
	res := query.EvalIndex(got, e)
	if !res.Precise {
		t.Error("persisted M(k) lost precision")
	}
}

func TestMStarRoundTripAndSelectiveLoad(t *testing.T) {
	g := datagen.NASAGraph(0.02, 4)
	ms := core.NewMStar(g)
	fups := []*pathexpr.Expr{
		mustParse("//dataset/author/lastName"),
		mustParse("//dataset/tableHead/fields/field/name"),
	}
	for _, q := range fups {
		ms.Support(q)
	}
	var buf bytes.Buffer
	if err := WriteMStar(&buf, ms); err != nil {
		t.Fatal(err)
	}

	// Full load reproduces the index.
	full, err := ReadMStar(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(true); err != nil {
		t.Fatal(err)
	}
	if full.NumComponents() != ms.NumComponents() {
		t.Fatalf("components %d -> %d", ms.NumComponents(), full.NumComponents())
	}
	if full.Sizes() != ms.Sizes() {
		t.Errorf("sizes changed: %+v -> %+v", ms.Sizes(), full.Sizes())
	}
	for _, q := range fups {
		want := ms.Query(q)
		got := full.Query(q)
		if !reflect.DeepEqual(got.Answer, want.Answer) || got.Cost != want.Cost {
			t.Errorf("%s: answer/cost changed after round trip", q)
		}
	}

	// Selective load: components I0..I2 only.
	mr, err := OpenMStar(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if mr.NumComponents() != ms.NumComponents() {
		t.Fatalf("header components = %d", mr.NumComponents())
	}
	partial, err := mr.LoadUpTo(2)
	if err != nil {
		t.Fatal(err)
	}
	if partial.NumComponents() != 3 || mr.Loaded() != 3 {
		t.Fatalf("partial components = %d loaded = %d", partial.NumComponents(), mr.Loaded())
	}
	// A length-2 query is answered precisely by the partial index.
	short := mustParse("//dataset/author/lastName")
	res := partial.Query(short)
	if !res.Precise {
		t.Error("partial index should answer length-2 FUP precisely")
	}
	if !reflect.DeepEqual(res.Answer, ms.Query(short).Answer) {
		t.Error("partial index wrong answer")
	}
	// A length-4 query is still answered correctly (with validation).
	long := fups[1]
	if !reflect.DeepEqual(partial.Query(long).Answer, ms.Query(long).Answer) {
		t.Error("partial index wrong long answer")
	}

	// Incremental continuation: load the rest without reopening.
	rest, err := mr.LoadUpTo(mr.NumComponents() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rest.Query(long).Precise {
		t.Error("fully loaded index should be precise for the long FUP")
	}
}

func TestMStarReadErrors(t *testing.T) {
	g := graph.PaperFigure1()
	if _, err := ReadMStar(strings.NewReader("garbage"), g); err == nil {
		t.Error("bad magic accepted")
	}
	// Graph-size mismatch.
	ms := core.NewMStar(graph.PaperFigure7())
	var buf bytes.Buffer
	if err := WriteMStar(&buf, ms); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMStar(bytes.NewReader(buf.Bytes()), g); err == nil {
		t.Error("M* loaded over wrong graph")
	}
}
