package engine

import (
	"context"
	"sync"
	"testing"

	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// CountCtx on a supported FUP answers from the extents alone: the pooled
// traversal scratch and the count-only collection leave one allocation, the
// cancellation poll handed to validation.
func TestCountCtxAllocs(t *testing.T) {
	if gtest.RaceEnabled {
		t.Skip("the race detector drops pooled items and instruments allocation")
	}
	en := mustNew(t, graph.PaperFigure1(), Options{Parallelism: 1})
	e := mustParse("//open_auction/bidder/personref")
	en.Support(e)
	ctx := context.Background()
	res, err := en.CountCtx(ctx, e)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(en.Eval(e)); !res.Precise || res.Count != want || res.Answer != nil {
		t.Fatalf("CountCtx = %+v, want %d precise answers and no ids", res, want)
	}
	if n := testing.AllocsPerRun(200, func() {
		_, _ = en.CountCtx(ctx, e)
	}); n > 1 {
		t.Errorf("CountCtx allocates %v times per query, want <= 1", n)
	}
}

// A frozen subpath query borrows its backward prefix-check memo from the
// pooled scratch, like its frontier buffers, so what it allocates is the
// answer slice alone — whatever the component's size.
func TestFrozenSubpathAllocs(t *testing.T) {
	if gtest.RaceEnabled {
		t.Skip("the race detector drops pooled items and instruments allocation")
	}
	g := datagen.XMarkGraph(0.02, 1)
	ms := core.NewMStarOpts(g, core.MStarOptions{Strategy: core.StrategySubpath})
	for _, s := range []string{
		"//open_auction/bidder/personref",
		"//closed_auction/annotation/description/text",
		"//category/description/parlist/listitem",
	} {
		ms.Support(mustParse(s))
	}
	fz := ms.Freeze()
	// A 4-step FUP over I0..I3 whose best subpath does not start the
	// expression, so the candidates' prefixes are checked backwards.
	e := mustParse("//closed_auction/annotation/description/text")
	res, strat := fz.QueryOpts(e, query.ValidateOpts{})
	want := query.EvalFrozen(fz.Component(0), e).Answer // validated in I0: exact
	if strat != core.StrategySubpath || len(want) == 0 || !sameIDs(res.Answer, want) {
		t.Fatalf("%s ran %s and answered %d nodes, want subpath and %d", e, strat, len(res.Answer), len(want))
	}
	if n := testing.AllocsPerRun(200, func() {
		_, _ = fz.QueryOpts(e, query.ValidateOpts{})
	}); n > 1 {
		t.Errorf("a frozen subpath query allocates %v times, want <= 1 (the answer)", n)
	}
}

// countingServer is what both engines offer a reader and a refiner.
type countingServer interface {
	query.Querier
	query.CountQuerier
	Support(e *pathexpr.Expr) bool
	Eval(e *pathexpr.Expr) []graph.NodeID
}

// The traversal scratch is pooled process-wide, so one buffer serves
// components of every size in turn: readers on a tiny graph and on a large
// one, through the monolithic and the sharded engine, share it concurrently
// while a refiner publishes generations whose finer components have more
// nodes. A buffer therefore grows on one query and is reused by a smaller
// component on the next. Every answer is checked against ground truth and
// every count against it; under -race this is the pool's safety test.
func TestPooledScratchAcrossComponentSizes(t *testing.T) {
	small := graph.PaperFigure1()
	large := gtest.New(41, gtest.Options{Nodes: 2500, Labels: 6, RefProb: 0.1, Components: 4})
	servers := []countingServer{
		mustNew(t, small, Options{Parallelism: 2}),
		mustNew(t, large, Options{Parallelism: 2}),
		mustSharded(t, large, ShardedOptions{Shards: 4, Parallelism: 2}),
	}
	graphs := []*graph.Graph{small, large, large}
	exprs := make([][]*pathexpr.Expr, len(servers))
	truth := make([][][]graph.NodeID, len(servers))
	for i, s := range servers {
		for _, w := range gtest.RandomWorkload(int64(42+i), graphs[i], gtest.WorkloadOptions{
			Size: 24, MaxLen: 4, Adversarial: 0.2, Rooted: 0.2, Wildcard: 0.1, DescAxis: 0.1,
		}) {
			e := mustParse(w)
			exprs[i] = append(exprs[i], e)
			truth[i] = append(truth[i], s.Eval(e))
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				// Readers interleave the servers in different orders, so
				// large and small components alternate on every pooled item.
				for k := range servers {
					i := (k + r) % len(servers)
					for j, e := range exprs[i] {
						if res := servers[i].Query(e); !sameIDs(res.Answer, truth[i][j]) {
							t.Errorf("server %d: %s: answer %v, ground truth %v", i, e, res.Answer, truth[i][j])
							return
						}
						res, err := servers[i].CountCtx(context.Background(), e)
						if err != nil || res.Count != len(truth[i][j]) || res.Answer != nil {
							t.Errorf("server %d: %s: CountCtx = %+v, %v; want %d and no ids", i, e, res, err, len(truth[i][j]))
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, s := range servers {
			for _, e := range exprs[i] {
				if !e.HasWildcard() && e.RequiredK() != pathexpr.Unbounded {
					s.Support(e)
				}
			}
		}
	}()
	wg.Wait()
}
