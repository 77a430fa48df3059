package mrx_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mrx"
)

// A document small enough to read: two persons, one referenced by a seller.
const exampleDoc = `<site>
  <people>
    <person id="p1"><name/></person>
    <person id="p2"><name/></person>
  </people>
  <auctions>
    <auction><seller person="p1"/></auction>
  </auctions>
</site>`

func ExampleLoadXML() {
	g, err := mrx.LoadXML(strings.NewReader(exampleDoc))
	if err != nil {
		panic(err)
	}
	fmt.Println("nodes:", g.NumNodes())
	fmt.Println("reference edges:", g.NumRefEdges())
	// Output:
	// nodes: 10
	// reference edges: 1
}

func ExampleParsePath() {
	e, err := mrx.ParsePath("//people/person")
	if err != nil {
		panic(err)
	}
	fmt.Println("length:", e.Length())
	fmt.Println("rooted:", e.Rooted)
	fmt.Println(e)
	// Output:
	// length: 1
	// rooted: false
	// //people/person
}

func ExampleEval() {
	g, _ := mrx.LoadXML(strings.NewReader(exampleDoc))
	// The seller element reaches person p1 through its IDREF edge.
	ids := mrx.Eval(g, mrx.MustParsePath("//auction/seller/person"))
	for _, id := range ids {
		fmt.Println(g.NodeLabelName(id))
	}
	// Output:
	// person
}

func ExampleNewMStar() {
	g, _ := mrx.LoadXML(strings.NewReader(exampleDoc))
	ms := mrx.NewMStar(g)
	q := mrx.MustParsePath("//auction/seller")

	before := ms.Query(q)
	ms.Support(q) // refine for this frequently-used path expression
	after := ms.Query(q)

	fmt.Println("answers:", len(after.Answer))
	fmt.Println("precise before:", before.Precise, "after:", after.Precise)
	fmt.Println("components:", ms.NumComponents())
	// Output:
	// answers: 1
	// precise before: false after: true
	// components: 2
}

func ExampleBuildAK() {
	g, _ := mrx.LoadXML(strings.NewReader(exampleDoc))
	a1 := mrx.BuildAK(g, 1)
	res := mrx.AsQuerier(a1).Query(mrx.MustParsePath("//people/person"))
	fmt.Println("precise:", res.Precise, "answers:", len(res.Answer))
	// Output:
	// precise: true answers: 2
}

// A refined M*(k)-index survives a restart as one snapshot file, the
// disk-resident index of the paper's §6: publish it beside the binary data
// graph, then read the graph back, map and verify the snapshot over it, and
// serve queries straight from the mapped bytes.
func ExamplePublishSnapshot() {
	g := mrx.XMarkGraph(0.01, 9)
	short := mrx.MustParsePath("//bidder/personref")
	deep := mrx.MustParsePath("//site/open_auctions/open_auction/annotation/description")
	ms := mrx.NewMStar(g)
	ms.Support(short)
	ms.Support(deep)

	dir, err := os.MkdirTemp("", "mrx-snapshot")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	var graphFile bytes.Buffer
	if err := mrx.WriteGraph(&graphFile, g); err != nil {
		panic(err)
	}
	path := filepath.Join(dir, "index.mrx")
	if err := mrx.PublishSnapshot(path, ms.Freeze(), mrx.SnapshotWriteOptions{}); err != nil {
		panic(err)
	}

	restarted, err := mrx.ReadGraph(&graphFile)
	if err != nil {
		panic(err)
	}
	snap, err := mrx.OpenSnapshot(path, restarted, mrx.SnapshotOpenOptions{})
	if err != nil {
		panic(err)
	}
	defer snap.Close()
	fm := snap.FrozenMStar()
	fmt.Println("components:", fm.NumComponents())
	for _, e := range []*mrx.PathExpr{short, deep} {
		res := fm.Query(e)
		fmt.Printf("%s: %d answers, precise=%v\n", e, len(res.Answer), res.Precise)
	}
	// Output:
	// components: 5
	// //bidder/personref: 27 answers, precise=true
	// //site/open_auctions/open_auction/annotation/description: 11 answers, precise=true
}
