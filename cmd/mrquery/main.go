// Command mrquery loads an XML document, builds a structural index, and
// evaluates simple path expressions, reporting answers and the paper's cost
// metric (index nodes visited + data nodes validated).
//
// Usage:
//
//	mrquery -in doc.xml -index a2 '//people/person' '//item/name'
//	mrquery -in doc.xml -index mstar -refine '//open_auction/bidder'
//	mrquery -in doc.xml -index engine -refine -stats '//person/name'
//	mrquery -in doc.xml -index engine -autotune -stats '//person/name'
//	mrgen -dataset xmark | mrquery -index mk -refine '//person/name'
//
// Index choices: a<k> (e.g. a0, a3), 1index, dk (construct for the given
// queries), dkpromote, mk, mstar, engine (the concurrent serving engine over
// an adaptive M*(k)), ud<k>,<l> (e.g. ud2,2). Every index is served through
// the same mrx.Querier interface. With -refine, adaptive indexes (dkpromote,
// mk, mstar, engine) are refined to support each query before it is
// re-evaluated. Queries may be simple path expressions (//a/b, /a//b) or
// branching expressions (//a[b/c]).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mrx"
)

func main() {
	in := flag.String("in", "", "input XML file (default stdin)")
	indexName := flag.String("index", "a2", "index: a<k>, 1index, dk, dkpromote, mk, mstar, engine, ud<k>,<l>")
	refine := flag.Bool("refine", false, "refine adaptive indexes to support each query")
	autotune := flag.Bool("autotune", false, "let the adaptive tuner discover the hot queries instead of -refine (engine index only)")
	epochs := flag.Int("epochs", 4, "tuning epochs to replay the workload for with -autotune")
	parallel := flag.Int("parallel", 0, "validation workers for -index engine (default GOMAXPROCS)")
	stats := flag.Bool("stats", false, "dump engine serving stats at exit (engine index only)")
	showAnswers := flag.Bool("answers", false, "print the answer node IDs (can be large)")
	maxAnswers := flag.Int("max-answers", 20, "max answer IDs to print with -answers")
	dotOut := flag.String("dot", "", "write the index graph in Graphviz DOT format to this file")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "mrquery: no query given")
		flag.Usage()
		os.Exit(2)
	}

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	g, err := mrx.LoadXML(r)
	if err != nil {
		fail(err)
	}
	fmt.Printf("data graph: %d nodes, %d edges (%d references)\n",
		g.NumNodes(), g.NumEdges(), g.NumRefEdges())

	type branching struct{ in, out *mrx.PathExpr }
	var queries []*mrx.PathExpr
	var order []any
	for _, arg := range flag.Args() {
		if strings.ContainsRune(arg, '[') {
			in, out, err := mrx.ParseBranchingPath(arg)
			if err != nil {
				fail(err)
			}
			order = append(order, branching{in, out})
			queries = append(queries, in) // refinement target for -refine
			continue
		}
		q, err := mrx.ParsePath(arg)
		if err != nil {
			fail(err)
		}
		queries = append(queries, q)
		order = append(order, q)
	}

	b := buildIndex(g, *indexName, queries, *refine, *autotune, *parallel)
	if *autotune {
		if b.engine == nil {
			fail(fmt.Errorf("-autotune requires -index engine"))
		}
		// Replay the workload for -epochs tuning epochs: the tracker observes
		// the traffic, and each Step promotes what proved itself hot.
		for epoch := 0; epoch < *epochs; epoch++ {
			for _, q := range queries {
				for i := 0; i < 5; i++ {
					b.engine.Query(q)
				}
			}
			plan := b.engine.Tuner().Step()
			for _, d := range plan.Decisions {
				fmt.Printf("autotune epoch %d: %s %s (%s, applied=%v)\n",
					plan.Epoch, d.Action, d.Key, d.Reason, d.Changed)
			}
		}
		fmt.Printf("autotune: generation %d after %d epochs\n", b.engine.Generation(), *epochs)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fail(err)
		}
		if err := b.dot(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *dotOut)
	}
	for _, item := range order {
		switch q := item.(type) {
		case *mrx.PathExpr:
			res := b.querier.Query(q)
			fmt.Printf("%s: %d answers, cost %d (index %d + validation %d), precise=%v\n",
				q, len(res.Answer), res.Cost.Total(), res.Cost.IndexNodes, res.Cost.DataNodes, res.Precise)
			if *showAnswers {
				printAnswers(res.Answer, *maxAnswers)
			}
		case branching:
			res := b.branching(q.in, q.out)
			fmt.Printf("%s[%s]: %d answers, cost %d (index %d + validation %d), precise=%v\n",
				q.in, q.out, len(res.Answer), res.Cost.Total(), res.Cost.IndexNodes, res.Cost.DataNodes, res.Precise)
			if *showAnswers {
				printAnswers(res.Answer, *maxAnswers)
			}
		}
	}
	if *stats {
		if b.engine == nil {
			fmt.Fprintln(os.Stderr, "mrquery: -stats requires -index engine")
		} else {
			b.engine.Stats().WriteTo(os.Stdout)
		}
	}
}

type branchEval = func(in, out *mrx.PathExpr) mrx.BranchingResult

type dotWriter = func(io.Writer) error

// built bundles the Querier serving the simple-path queries with the
// branching evaluator and DOT writer for the chosen index.
type built struct {
	querier   mrx.Querier
	branching branchEval
	dot       dotWriter
	engine    *mrx.Engine // non-nil for -index engine
}

func buildIndex(g *mrx.Graph, name string, queries []*mrx.PathExpr, refine, autotune bool, parallel int) built {
	dotFor := func(ig *mrx.Index) dotWriter {
		return func(w io.Writer) error { return ig.WriteDOT(w, name, 8) }
	}
	onIndex := func(ig *mrx.Index, downL int) built {
		return built{
			querier: mrx.AsQuerier(ig),
			branching: func(in, out *mrx.PathExpr) mrx.BranchingResult {
				return mrx.QueryIndexBranching(ig, in, out, downL)
			},
			dot: dotFor(ig),
		}
	}
	switch {
	case strings.HasPrefix(name, "ud"):
		var k, l int
		if _, err := fmt.Sscanf(name, "ud%d,%d", &k, &l); err != nil || k < 0 || l < 0 {
			fail(fmt.Errorf("bad UD(k,l) index name %q (want e.g. ud2,2)", name))
		}
		ud := mrx.NewUD(g, k, l)
		report(ud.Index().NumNodes(), ud.Index().NumEdges(), name)
		return built{querier: ud, branching: ud.QueryBranching, dot: dotFor(ud.Index())}
	case name == "engine":
		var tune *mrx.AutoTuneConfig
		if autotune {
			// Interval 0: mrquery steps epochs itself so runs are
			// deterministic and need no Close.
			cfg := mrx.DefaultAutoTuneConfig()
			tune = &cfg
		}
		en, err := mrx.NewEngine(g, mrx.EngineOptions{Parallelism: parallel, AutoTune: tune})
		if err != nil {
			fail(err)
		}
		if refine && !autotune {
			for _, q := range queries {
				en.Support(q)
			}
		}
		sz := en.Snapshot().Sizes()
		fmt.Printf("index engine: %d nodes, %d edges (%d components, generation %d)\n",
			sz.Nodes, sz.Edges, sz.Components, en.Generation())
		// The tuning epochs run after this returns, so the finest component
		// is resolved when it is used, not now.
		return built{
			querier: en,
			branching: func(in, out *mrx.PathExpr) mrx.BranchingResult {
				return mrx.QueryIndexBranching(en.Snapshot().Finest(), in, out, 0)
			},
			dot:    func(w io.Writer) error { return en.Snapshot().Finest().WriteDOT(w, name, 8) },
			engine: en,
		}
	case strings.HasPrefix(name, "a"):
		k, err := strconv.Atoi(name[1:])
		if err != nil || k < 0 {
			fail(fmt.Errorf("bad A(k) index name %q", name))
		}
		ig := mrx.BuildAK(g, k)
		report(ig.NumNodes(), ig.NumEdges(), name)
		return onIndex(ig, 0)
	case name == "1index":
		ig, depth := mrx.Build1Index(g)
		fmt.Printf("bisimulation depth: %d\n", depth)
		report(ig.NumNodes(), ig.NumEdges(), name)
		return onIndex(ig, 0)
	case name == "dk":
		ig, err := mrx.BuildDK(g, queries)
		if err != nil {
			fail(err)
		}
		report(ig.NumNodes(), ig.NumEdges(), name)
		return onIndex(ig, 0)
	case name == "dkpromote":
		dk := mrx.NewDKPromote(g)
		if refine {
			for _, q := range queries {
				dk.Support(q)
			}
		}
		report(dk.Index().NumNodes(), dk.Index().NumEdges(), name)
		b := onIndex(dk.Index(), 0)
		b.querier = dk
		return b
	case name == "mk":
		mk := mrx.NewMK(g)
		if refine {
			for _, q := range queries {
				mk.Support(q)
			}
		}
		report(mk.Index().NumNodes(), mk.Index().NumEdges(), name)
		b := onIndex(mk.Index(), 0)
		b.querier = mk
		return b
	case name == "mstar":
		ms := mrx.NewMStar(g)
		if refine {
			for _, q := range queries {
				ms.Support(q)
			}
		}
		sz := ms.Sizes()
		fmt.Printf("index mstar: %d nodes, %d edges (%d components, %d cross-links)\n",
			sz.Nodes, sz.Edges, sz.Components, sz.CrossLinks)
		b := onIndex(ms.Finest(), 0)
		b.querier = ms
		return b
	default:
		fail(fmt.Errorf("unknown index %q", name))
		return built{}
	}
}

func report(nodes, edges int, name string) {
	fmt.Printf("index %s: %d nodes, %d edges\n", name, nodes, edges)
}

func printAnswers(answers []mrx.NodeID, max int) {
	n := len(answers)
	if n > max {
		answers = answers[:max]
	}
	fmt.Printf("  answers: %v", answers)
	if n > len(answers) {
		fmt.Printf(" ... (%d more)", n-len(answers))
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mrquery: %v\n", err)
	os.Exit(1)
}
