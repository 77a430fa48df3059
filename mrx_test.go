package mrx_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mrx"
)

const doc = `<site>
  <people>
    <person id="p1"><name/></person>
    <person id="p2"><name/></person>
  </people>
  <auctions>
    <auction><seller person="p1"/></auction>
  </auctions>
</site>`

func TestFacadeLoadAndEval(t *testing.T) {
	g, err := mrx.LoadXML(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	got := mrx.Eval(g, mrx.MustParsePath("//people/person"))
	if len(got) != 2 {
		t.Fatalf("persons = %v", got)
	}
	if ref := mrx.Eval(g, mrx.MustParsePath("//seller/person")); len(ref) != 1 {
		t.Fatalf("seller ref = %v", ref)
	}
}

func TestFacadeIndexes(t *testing.T) {
	g := mrx.XMarkGraph(0.01, 1)
	e := mrx.MustParsePath("//open_auction/bidder/personref")
	want := mrx.Eval(g, e)

	a2 := mrx.BuildAK(g, 2)
	if res := mrx.AsQuerier(a2).Query(e); !reflect.DeepEqual(res.Answer, want) {
		t.Error("A(2) wrong answer")
	}

	one, depth := mrx.Build1Index(g)
	if depth <= 0 {
		t.Error("bisimulation depth")
	}
	if res := mrx.AsQuerier(one).Query(e); !res.Precise {
		t.Error("1-index should be precise")
	}

	dk, err := mrx.BuildDK(g, []*mrx.PathExpr{e})
	if err != nil {
		t.Fatal(err)
	}
	if res := mrx.AsQuerier(dk).Query(e); !res.Precise {
		t.Error("D(k)-construct should be precise for its FUP")
	}

	dp := mrx.NewDKPromote(g)
	dp.Support(e)
	if res := mrx.AsQuerier(dp.Index()).Query(e); !res.Precise {
		t.Error("D(k)-promote should be precise after Support")
	}

	mk := mrx.NewMK(g)
	mk.Support(e)
	if res := mk.Query(e); !res.Precise || !reflect.DeepEqual(res.Answer, want) {
		t.Error("M(k) wrong after Support")
	}

	ms := mrx.NewMStar(g)
	before := ms.Query(e)
	if !reflect.DeepEqual(before.Answer, want) {
		t.Error("M*(k) wrong before refinement")
	}
	ms.Support(e)
	after := ms.Query(e)
	if !after.Precise || !reflect.DeepEqual(after.Answer, want) {
		t.Error("M*(k) wrong after Support")
	}
	if after.Cost.Total() > before.Cost.Total() {
		t.Errorf("refinement made the FUP more expensive: %d -> %d",
			before.Cost.Total(), after.Cost.Total())
	}
}

func TestFacadeWorkload(t *testing.T) {
	g := mrx.NASAGraph(0.01, 2)
	qs := mrx.GenerateWorkload(g, mrx.WorkloadOptions{NumQueries: 50, MaxPathLen: 6, MaxQueryLen: 4, Seed: 3})
	if len(qs) != 50 {
		t.Fatalf("queries = %d", len(qs))
	}
	hist := mrx.WorkloadHistogram(qs)
	if len(hist) == 0 || hist[0] == 0 {
		t.Errorf("histogram %v", hist)
	}
	paths := mrx.EnumerateLabelPaths(g, 3)
	if len(paths) == 0 {
		t.Error("no paths")
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := mrx.NewBuilder()
	r := b.AddNode("r")
	a := b.AddNode("a")
	b.AddEdge(r, a, mrx.TreeEdge)
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Fatal("builder facade broken")
	}
}

func TestFacadePersistence(t *testing.T) {
	g := mrx.XMarkGraph(0.01, 4)
	var gb bytes.Buffer
	if err := mrx.WriteGraph(&gb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := mrx.ReadGraph(bytes.NewReader(gb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatal("graph round trip size mismatch")
	}

	// The index round trip is a published snapshot, reopened verified over
	// the graph that came back from disk: it answers every supported FUP
	// exactly as the M*(k) it was frozen from.
	ms := mrx.NewMStar(g)
	fups := []*mrx.PathExpr{
		mrx.MustParsePath("//open_auction/bidder/personref"),
		mrx.MustParsePath("//person/profile/interest"),
		mrx.MustParsePath("//site/regions/europe/item/name"),
	}
	for _, e := range fups {
		ms.Support(e)
	}
	path := filepath.Join(t.TempDir(), "index.mrx")
	if err := mrx.PublishSnapshot(path, ms.Freeze(), mrx.SnapshotWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := mrx.OpenSnapshot(path, g2, mrx.SnapshotOpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, e := range fups {
		got, want := snap.FrozenMStar().Query(e), ms.Query(e)
		if !reflect.DeepEqual(got.Answer, want.Answer) || got.Precise != want.Precise {
			t.Errorf("%s: snapshot answers %d (precise %v), M*(k) %d (precise %v)",
				e, len(got.Answer), got.Precise, len(want.Answer), want.Precise)
		}
	}

	// A file cut short must not open.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.mrx")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := mrx.OpenSnapshot(truncated, g2, mrx.SnapshotOpenOptions{}); err == nil {
		snap.Close()
		t.Fatal("truncated snapshot opened")
	}
}

func TestFacadeUDAndBranching(t *testing.T) {
	g := mrx.XMarkGraph(0.01, 6)
	ud := mrx.NewUD(g, 1, 1)
	in := mrx.MustParsePath("//open_auctions/open_auction")
	out := mrx.MustParsePath("//open_auction/bidder")
	res := ud.QueryBranching(in, out)
	want := mrx.EvalBranching(g, in, out)
	if len(res.Answer) != len(want) {
		t.Fatalf("branching answer %d want %d", len(res.Answer), len(want))
	}
	if !res.Precise {
		t.Error("UD(1,1) should answer this branching query precisely")
	}
}

func TestFacadeMisc(t *testing.T) {
	g, err := mrx.LoadXMLDetailed(strings.NewReader(doc), &mrx.LoadOptions{RootLabel: "top"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Graph.NodeLabelName(g.Graph.Root()) != "top" {
		t.Error("LoadXMLDetailed options ignored")
	}
	if g.Refs != 1 {
		t.Errorf("refs = %d", g.Refs)
	}
	e := mrx.PathFromLabels([]string{"people", "person"})
	if e.String() != "//people/person" {
		t.Errorf("PathFromLabels = %s", e)
	}
	d := mrx.NewDataIndex(g.Graph)
	if got := d.Eval(e); len(got) != 2 {
		t.Errorf("DataIndex eval = %v", got)
	}
	opts := mrx.DefaultWorkloadOptions(3)
	if opts.NumQueries != 500 || opts.MaxPathLen != 9 {
		t.Errorf("default workload options = %+v", opts)
	}
}

func TestFacadeMStarStrategies(t *testing.T) {
	g := mrx.XMarkGraph(0.01, 8)
	ms := mrx.NewMStar(g)
	e := mrx.MustParsePath("//person/watches/watch")
	ms.Support(e)
	want := mrx.Eval(g, e)
	if got := ms.QueryBottomUp(e); len(got.Answer) != len(want) {
		t.Error("bottom-up mismatch")
	}
	if got := ms.QueryHybrid(e, 1); len(got.Answer) != len(want) {
		t.Error("hybrid mismatch")
	}
	if got, name := ms.QueryAuto(e); len(got.Answer) != len(want) || name == "" {
		t.Error("auto mismatch")
	}
	if got := ms.QuerySubpath(e, 0, 1); len(got.Answer) != len(want) {
		t.Error("subpath mismatch")
	}
}

// Every index type in the package must be servable through the one Querier
// interface and agree with ground truth.
func TestFacadeQuerier(t *testing.T) {
	g := mrx.XMarkGraph(0.01, 5)
	e := mrx.MustParsePath("//open_auction/bidder/personref")
	want := mrx.Eval(g, e)

	one, _ := mrx.Build1Index(g)
	dk, err := mrx.BuildDK(g, []*mrx.PathExpr{e})
	if err != nil {
		t.Fatal(err)
	}
	dp := mrx.NewDKPromote(g)
	dp.Support(e)
	mk := mrx.NewMK(g)
	mk.Support(e)
	ms := mrx.NewMStarOpts(g, mrx.MStarOptions{Strategy: mrx.StrategyAuto})
	ms.Support(e)
	en, err := mrx.NewEngine(g, mrx.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	queriers := map[string]mrx.Querier{
		"a2":        mrx.AsQuerier(mrx.BuildAK(g, 2)),
		"1index":    mrx.AsQuerier(one),
		"dk":        mrx.AsQuerier(dk),
		"dkpromote": dp,
		"mk":        mk,
		"mstar":     ms,
		"ud":        mrx.NewUD(g, 2, 1),
		"engine":    en,
	}
	for name, q := range queriers {
		res := q.Query(e)
		if !reflect.DeepEqual(res.Answer, want) {
			t.Errorf("%s via Querier: %d answers, want %d", name, len(res.Answer), len(want))
		}
	}

	// Every Querier also serves through the context-aware interface: the
	// adapter must return identical results under a live context, and the
	// engine must be picked up natively (no wrapping).
	for name, q := range queriers {
		cq := mrx.AsContextQuerier(q)
		res, err := cq.QueryCtx(context.Background(), e)
		if err != nil {
			t.Errorf("%s via ContextQuerier: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(res.Answer, want) {
			t.Errorf("%s via ContextQuerier: %d answers, want %d", name, len(res.Answer), len(want))
		}
	}
	if cq := mrx.AsContextQuerier(en); cq != mrx.ContextQuerier(en) {
		t.Error("AsContextQuerier(engine) should return the engine itself")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ig := mrx.BuildAK(g, 2)
	if _, err := mrx.AsContextQuerier(mrx.AsQuerier(ig)).QueryCtx(canceled, e); err == nil {
		t.Error("ContextQuerier adapter ignored a canceled context")
	}
}

// The facade Engine serves, refines and reports stats end to end.
func TestFacadeEngine(t *testing.T) {
	g := mrx.XMarkGraph(0.01, 6)
	e := mrx.MustParsePath("//person/watches/watch")
	want := mrx.Eval(g, e)

	en, err := mrx.NewEngine(g, mrx.EngineOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := en.Query(e); !reflect.DeepEqual(res.Answer, want) {
		t.Fatal("engine wrong before refinement")
	}
	en.Support(e)
	res := en.Query(e)
	if !res.Precise || !reflect.DeepEqual(res.Answer, want) {
		t.Fatal("engine wrong after Support")
	}
	if en.Generation() == 0 {
		t.Error("Support published no snapshot")
	}

	var st mrx.EngineStats = en.Stats()
	if st.Queries != 2 || st.Refinements == 0 {
		t.Errorf("stats: %d queries, %d refinements", st.Queries, st.Refinements)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil || !strings.Contains(buf.String(), "queries") {
		t.Errorf("stats rendering: %v %q", err, buf.String())
	}
}
