package query

import (
	"context"

	"mrx/internal/index"
	"mrx/internal/pathexpr"
)

// Querier is the uniform query interface implemented by every index in the
// repository: the single-graph indexes (1-index, A(k), D(k)-construct) via
// AsQuerier, the adaptive indexes (D(k)-promote, M(k), M*(k), UD(k,l), APEX)
// directly, and the concurrent serving engine. A Querier evaluates a simple
// path expression and returns the validated answer together with the paper's
// cost metric.
type Querier interface {
	Query(e *pathexpr.Expr) Result
}

// ContextQuerier is the context-aware counterpart of Querier: evaluation
// observes ctx and aborts early — returning ctx's error — once it is
// canceled or past its deadline, so a serving layer can stop validation
// work the moment a client disconnects. The concurrent engine implements it
// natively (its QueryCtx polls ctx between validation candidates); wrap any
// plain Querier with AsContextQuerier to serve it through an interface that
// only consumes ContextQuerier, such as the network serving layer.
type ContextQuerier interface {
	QueryCtx(ctx context.Context, e *pathexpr.Expr) (Result, error)
}

// CountQuerier is implemented by queriers that can answer how many data
// nodes match without materialising them: CountCtx is QueryCtx with
// ValidateOpts.CountOnly, returning Result.Count, the same Cost and Precise,
// and a nil Answer. The serving layer uses it for every request that did
// not ask for the ids.
type CountQuerier interface {
	CountCtx(ctx context.Context, e *pathexpr.Expr) (Result, error)
}

// AsContextQuerier adapts q to the ContextQuerier interface. If q already
// implements it (the engine does), it is returned unchanged; otherwise the
// adapter checks ctx before and after the (uninterruptible) Query call, so
// an expired context is still honored at call boundaries even though the
// wrapped index cannot abort mid-validation.
func AsContextQuerier(q Querier) ContextQuerier {
	if cq, ok := q.(ContextQuerier); ok {
		return cq
	}
	return ctxAdapter{q: q}
}

type ctxAdapter struct{ q Querier }

func (a ctxAdapter) QueryCtx(ctx context.Context, e *pathexpr.Expr) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := a.q.Query(e)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// QuerierFunc adapts a plain function to the Querier interface, for serving
// paths whose backing index is swapped between queries (e.g. the frozen
// differential path republishing snapshots after each refinement).
type QuerierFunc func(e *pathexpr.Expr) Result

// Query evaluates e by calling the function.
func (f QuerierFunc) Query(e *pathexpr.Expr) Result { return f(e) }

// IndexQuerier adapts a bare structural index graph to the Querier
// interface; it evaluates with EvalIndex semantics (sequential validation,
// the paper's cost accounting).
type IndexQuerier struct {
	ig *index.Graph
}

// AsQuerier wraps a single-graph structural index as a Querier.
func AsQuerier(ig *index.Graph) IndexQuerier { return IndexQuerier{ig: ig} }

// Index returns the wrapped index graph.
func (q IndexQuerier) Index() *index.Graph { return q.ig }

// Query evaluates e over the wrapped index.
func (q IndexQuerier) Query(e *pathexpr.Expr) Result { return EvalIndex(q.ig, e) }
