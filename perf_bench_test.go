// Micro-benchmarks for the individual operations underlying the figure
// experiments: parsing, partition refinement, index construction, adaptive
// refinement and query evaluation.
package mrx_test

import (
	"fmt"
	"runtime"
	"testing"

	"mrx"
	"mrx/internal/adapt"
	"mrx/internal/baseline"
	"mrx/internal/core"
	"mrx/internal/engine"
	"mrx/internal/partition"
	"mrx/internal/query"
)

// mustEngineB constructs an engine from options the benchmark knows are
// valid.
func mustEngineB(b *testing.B, g *mrx.Graph, o engine.Options) *engine.Engine {
	b.Helper()
	en, err := engine.New(g, o)
	if err != nil {
		b.Fatal(err)
	}
	return en
}

func BenchmarkLoadXMarkXML(b *testing.B) {
	doc := mrx.GenerateXMark(0.1, 1)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mrx.LoadXMLBytes(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKBisimulationRound(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	p := partition.ByLabel(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.RefineOnce(g, p, nil)
	}
}

func BenchmarkBuildA3XMark(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.AK(g, 3)
	}
}

func BenchmarkBuild1IndexXMark(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.OneIndex(g)
	}
}

func BenchmarkMKSupportFUP(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	e := mrx.MustParsePath("//open_auction/bidder/personref/person/name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk := core.NewMK(g)
		mk.Support(e)
	}
}

func BenchmarkMStarSupportFUP(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	e := mrx.MustParsePath("//open_auction/bidder/personref/person/name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := core.NewMStar(g)
		ms.Support(e)
	}
}

func BenchmarkQueryA3Validated(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	ig := baseline.AK(g, 3)
	e := mrx.MustParsePath("//person/watches/watch/open_auction/itemref")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.EvalIndex(ig, e)
	}
}

func BenchmarkQueryMStarTopDown(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	ms := core.NewMStar(g)
	e := mrx.MustParsePath("//person/watches/watch/open_auction/itemref")
	ms.Support(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.QueryTopDown(e)
	}
}

// BenchmarkFrozenMStarTopDown measures one supported (so unvalidated)
// frozen query that changes resolution on the way: the index supports
// publishFUPs (components I0–I3), so "top-down" descends I0 → I1 → I2 → I3
// along the stored subnode links, and "subpath" evaluates its best subpath
// in I1 and then descends the matches to I3 in one two-level walk.
func BenchmarkFrozenMStarTopDown(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	e := publishFUPs[2] // //closed_auction/annotation/description/text
	for _, strat := range []core.Strategy{core.StrategyTopDown, core.StrategySubpath} {
		b.Run(strat, func(b *testing.B) {
			ms := core.NewMStarOpts(g, core.MStarOptions{Strategy: strat})
			for _, f := range publishFUPs {
				ms.Support(f)
			}
			fz := ms.Freeze()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fz.Query(e)
			}
		})
	}
}

// BenchmarkFreezeMStar measures flattening a refined M*(k)-index into its
// frozen read-path view — the full-freeze cost an engine pays at worst per
// publish (incremental publishes re-freeze only dirtied components). The
// index supports publishFUPs, so it has components I0–I3; "seq" freezes
// them one after the other, "par" on up to GOMAXPROCS goroutines, as the
// engines do.
func BenchmarkFreezeMStar(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	for _, arm := range []struct {
		name        string
		parallelism int
	}{{"seq", 1}, {"par", runtime.GOMAXPROCS(0)}} {
		b.Run(arm.name, func(b *testing.B) {
			ms := core.NewMStarOpts(g, core.MStarOptions{Parallelism: arm.parallelism})
			for _, f := range publishFUPs {
				ms.Support(f)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms.Freeze()
			}
		})
	}
}

// BenchmarkEnginePublish measures one index-changing Support: precision
// probe, REFINE* of the writer's index in place, incremental re-freeze,
// publish — the write-side latency of the snapshot lifecycle. "fresh" starts
// from an engine at I0; "refined" from one that already supports
// publishFUPs, so the index the Support refines has several components.
func BenchmarkEnginePublish(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	e := mrx.MustParsePath("//open_auction/bidder/personref/person/name")
	for _, arm := range []struct {
		name string
		fups []*mrx.PathExpr
	}{{"fresh", nil}, {"refined", publishFUPs}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				en := mustEngineB(b, g, engine.Options{})
				for _, f := range arm.fups {
					en.Support(f)
				}
				b.StartTimer()
				if !en.Support(e) {
					b.Fatal("FUP unexpectedly precise; nothing published")
				}
			}
		})
	}
}

// publishFUPs are the FUPs BenchmarkEnginePublish's refined arm supports
// before the timed Support, and the index BenchmarkFreezeMStar freezes;
// together they materialize components I0–I3.
var publishFUPs = []*mrx.PathExpr{
	mrx.MustParsePath("//open_auction/bidder/personref"),
	mrx.MustParsePath("//person/profile/interest"),
	mrx.MustParsePath("//closed_auction/annotation/description/text"),
	mrx.MustParsePath("//item/mailbox/mail/from"),
	mrx.MustParsePath("//person/watches/watch"),
	mrx.MustParsePath("//open_auction/seller"),
	mrx.MustParsePath("//category/description/parlist/listitem"),
	mrx.MustParsePath("//closed_auction/buyer"),
}

func BenchmarkGroundTruthEval(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	d := query.NewDataIndex(g)
	e := mrx.MustParsePath("//open_auction/bidder/personref/person")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Eval(e)
	}
}

// Parallel validation of one expensive under-refined query at increasing
// worker-pool sizes. On a multi-core machine the wall time should drop with
// workers; on a single core it measures the pool's overhead.
func BenchmarkParallelValidation(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	ig := baseline.AK(g, 1)
	e := mrx.MustParsePath("//person/watches/watch/open_auction/itemref")
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.EvalIndexOpts(ig, e, query.ValidateOpts{Workers: workers})
			}
		})
	}
}

// Engine serving throughput under concurrent readers: b.RunParallel spreads
// the query mix across GOMAXPROCS goroutines hitting one refined engine.
func BenchmarkEngineServing(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	queries := []*mrx.PathExpr{
		mrx.MustParsePath("//open_auction/bidder/personref"),
		mrx.MustParsePath("//person/name"),
		mrx.MustParsePath("//item/description"),
		mrx.MustParsePath("//person/watches/watch"),
	}
	for _, readers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			en := mustEngineB(b, g, engine.Options{})
			for _, q := range queries {
				en.Support(q)
			}
			b.SetParallelism(readers) // readers × GOMAXPROCS goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					en.Query(queries[i%len(queries)])
					i++
				}
			})
		})
	}
}

// BenchmarkEngineServingAutoTune measures the workload-tracking hook's cost
// on the serving path relative to BenchmarkEngineServing: "off" is the nil
// tuner (one nil check), "on" pays a sketch probe plus atomic counter bumps
// per query. Compare readers=N here against BenchmarkEngineServing's
// readers=N rows; the tracking overhead budget is ≤5% ns/op when enabled.
func BenchmarkEngineServingAutoTune(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	queries := []*mrx.PathExpr{
		mrx.MustParsePath("//open_auction/bidder/personref"),
		mrx.MustParsePath("//person/name"),
		mrx.MustParsePath("//item/description"),
		mrx.MustParsePath("//person/watches/watch"),
	}
	for _, mode := range []string{"off", "on"} {
		for _, readers := range []int{1, 8} {
			b.Run(fmt.Sprintf("tracking=%s/readers=%d", mode, readers), func(b *testing.B) {
				opts := engine.Options{}
				if mode == "on" {
					// Manual stepping: the hot path pays for tracking, never
					// for plan execution.
					opts.AutoTune = &adapt.Config{TopK: 64}
				}
				en := mustEngineB(b, g, opts)
				for _, q := range queries {
					en.Support(q)
				}
				b.SetParallelism(readers)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						en.Query(queries[i%len(queries)])
						i++
					}
				})
			})
		}
	}
}

// BenchmarkAutoTuneSteadyState measures steady-state serving cost of an
// auto-tuned engine after convergence on its hot set, against the statically
// refined oracle — the wall-clock side of the convergence criterion asserted
// (on the deterministic cost metric) in the engine tests.
func BenchmarkAutoTuneSteadyState(b *testing.B) {
	g := mrx.XMarkGraph(0.1, 1)
	queries := []*mrx.PathExpr{
		mrx.MustParsePath("//open_auction/bidder/personref"),
		mrx.MustParsePath("//person/name"),
		mrx.MustParsePath("//item/description"),
	}
	converge := func(en *engine.Engine) {
		for epoch := 0; epoch < 6; epoch++ {
			for i := 0; i < 5; i++ {
				for _, q := range queries {
					en.Query(q)
				}
			}
			en.Tuner().Step()
		}
	}
	b.Run("tuned", func(b *testing.B) {
		en := mustEngineB(b, g, engine.Options{AutoTune: &adapt.Config{
			TopK: 64, HotThreshold: 3, PromoteAfter: 2, DemoteAfter: 3, Cooldown: 2,
		}})
		converge(en)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			en.Query(queries[i%len(queries)])
		}
	})
	b.Run("oracle", func(b *testing.B) {
		en := mustEngineB(b, g, engine.Options{})
		for _, q := range queries {
			en.Support(q)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			en.Query(queries[i%len(queries)])
		}
	})
}
