package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// Static serves structural-index queries from one fixed frozen M*(k)
// snapshot — typically a disk-resident view mapped straight off an
// mmapstore file (cmd/mrserve -index-file). It shares the adaptive
// engine's read path (frozen strategy dispatch, bounded validation
// workers, per-strategy latency histograms) but has no write side at all:
// no refinement lock, no snapshot pointer, no generations. The frozen view
// is immutable by construction, so every method is safe for any number of
// goroutines, and a zero-copy mapped view stays resident exactly as long
// as the Static referencing it.
type Static struct {
	data    *graph.Graph
	di      *query.DataIndex
	workers int
	fm      *core.FrozenMStar

	stats stats
}

// Static serves through the same interface as the adaptive engines; the
// network layer cannot tell them apart.
var _ query.ContextQuerier = (*Static)(nil)
var _ query.CountQuerier = (*Static)(nil)

// NewStatic builds a read-only engine over the frozen view fm, bound to
// fm's data graph. parallelism bounds the validation worker pool per query;
// values <= 0 default to runtime.GOMAXPROCS(0).
func NewStatic(fm *core.FrozenMStar, parallelism int) (*Static, error) {
	if fm == nil {
		return nil, fmt.Errorf("engine: %w: nil frozen snapshot", errInvalidOption)
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	g := fm.Data()
	return &Static{
		data:    g,
		di:      query.NewDataIndex(g),
		workers: parallelism,
		fm:      fm,
	}, nil
}

// Data returns the underlying data graph.
func (sq *Static) Data() *graph.Graph { return sq.data }

// DataIndex returns the shared ground-truth evaluator; it is safe for
// concurrent use.
func (sq *Static) DataIndex() *query.DataIndex { return sq.di }

// FrozenSnapshot returns the frozen view every query reads. A Static has
// exactly one, forever.
func (sq *Static) FrozenSnapshot() *core.FrozenMStar { return sq.fm }

// Eval computes the exact answer of e on the data graph (ground truth; no
// index, no cost metric).
func (sq *Static) Eval(e *pathexpr.Expr) []graph.NodeID { return sq.di.Eval(e) }

// Query evaluates e against the frozen snapshot with its configured
// strategy, validating under-refined answers across the worker pool.
func (sq *Static) Query(e *pathexpr.Expr) query.Result {
	return sq.query(e, query.ValidateOpts{Workers: sq.workers})
}

// QueryCtx is Query with cancellation, making Static a
// query.ContextQuerier: validation polls ctx and aborts once it is done,
// returning ctx's error.
func (sq *Static) QueryCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	return sq.queryCtx(ctx, e, false)
}

// CountCtx is QueryCtx without the answer (see Engine.CountCtx), making
// Static a query.CountQuerier.
func (sq *Static) CountCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	return sq.queryCtx(ctx, e, true)
}

func (sq *Static) queryCtx(ctx context.Context, e *pathexpr.Expr, countOnly bool) (query.Result, error) {
	if err := ctx.Err(); err != nil {
		sq.stats.canceled.Add(1)
		return query.Result{}, err
	}
	res := sq.query(e, query.ValidateOpts{
		Workers:   sq.workers,
		Stop:      func() bool { return ctx.Err() != nil },
		CountOnly: countOnly,
	})
	if err := ctx.Err(); err != nil {
		sq.stats.canceled.Add(1)
		return query.Result{}, err
	}
	return res, nil
}

// query is the read path shared by Query and QueryCtx: frozen strategy
// dispatch plus counter bumps, mirroring the adaptive engine's hot path
// minus the snapshot load and tuner probe.
//
//mrx:hotpath static frozen read path
func (sq *Static) query(e *pathexpr.Expr, opt query.ValidateOpts) query.Result {
	start := time.Now()
	res, strategy := sq.fm.QueryOpts(e, opt)
	sq.stats.recordQuery(strategy, res.Cost.IndexNodes, res.Cost.DataNodes, res.Precise, time.Since(start))
	return res
}

// Stats returns a point-in-time copy of the serving counters. Generation is
// always zero: a Static never publishes.
func (sq *Static) Stats() StatsSnapshot { return sq.stats.snapshot(0) }
