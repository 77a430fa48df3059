package core

import (
	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/partition"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// Strategy names an M*(k) query-evaluation strategy. The zero value selects
// the default (top-down, §4.1).
type Strategy = string

// Strategies. The first three are also the names QueryAuto reports.
const (
	StrategyNaive    Strategy = "naive"
	StrategyTopDown  Strategy = "top-down"
	StrategySubpath  Strategy = "subpath"
	StrategyBottomUp Strategy = "bottom-up"
	StrategyHybrid   Strategy = "hybrid"
	StrategyAuto     Strategy = "auto"
)

// MStarOptions configures an M*(k)-index built with NewMStarOpts.
type MStarOptions struct {
	// MaxK caps the resolution of materialized components: Refine clamps a
	// FUP's required local similarity to MaxK, bounding index memory at the
	// price of leaving longer FUPs imprecise (their answers keep being
	// validated). 0 means unlimited.
	MaxK int

	// Strategy selects the evaluation strategy used by Query and QueryOpts.
	// The zero value is StrategyTopDown, the paper's default.
	Strategy Strategy

	// Parallelism bounds the validation worker pool used by the query
	// strategies: extents of under-refined target nodes are partitioned
	// across up to this many goroutines. Values <= 1 validate sequentially
	// with the paper's exact cost accounting. It bounds the freeze fan-out
	// the same way: Freeze and FreezeReusing flatten up to this many
	// components at once, with a snapshot that does not depend on it.
	Parallelism int
}

// NewMStarOpts initializes an M*(k)-index of g with the single component I0
// and the given options. NewMStar(g) is NewMStarOpts(g, MStarOptions{}).
func NewMStarOpts(g *graph.Graph, opts MStarOptions) *MStar {
	p := partition.ByLabel(g)
	i0 := index.FromPartition(g, p, func(partition.BlockID) int { return 0 })
	return &MStar{data: g, comps: []*index.Graph{i0}, opts: opts}
}

// Options returns the options the index was built with.
func (ms *MStar) Options() MStarOptions { return ms.opts }

// WithParallelism returns a copy of o whose Parallelism is p when o leaves
// it zero ("inherit the engine's"); a set value wins. Engines use it to
// push their worker-pool default down into the index options they build
// with, without mutating an options value they do not own.
func (o MStarOptions) WithParallelism(p int) MStarOptions {
	if o.Parallelism == 0 {
		o.Parallelism = p
	}
	return o
}

// validateOpts derives the default validation options from the index
// configuration.
func (ms *MStar) validateOpts() query.ValidateOpts {
	return query.ValidateOpts{Workers: ms.opts.Parallelism}
}

// Clone returns a deep copy of the index sharing only the immutable data
// graph and extent slices: every component index graph is cloned, so the
// copy can be inspected or refined independently of the original.
// Engine.Snapshot uses it to hand out the writer's index without sharing it.
func (ms *MStar) Clone() *MStar {
	comps := make([]*index.Graph, len(ms.comps))
	for i, c := range ms.comps {
		comps[i] = c.Clone()
	}
	var fups map[string]*pathexpr.Expr
	if len(ms.fups) > 0 {
		fups = make(map[string]*pathexpr.Expr, len(ms.fups))
		for k, e := range ms.fups {
			fups[k] = e // expressions are immutable; share them
		}
	}
	return &MStar{data: ms.data, comps: comps, opts: ms.opts, fups: fups}
}

// QueryOpts evaluates e with the configured strategy under explicit
// validation options (worker pool size, cancellation), reporting which
// strategy ran. With the zero options of NewMStar it behaves exactly like
// Query.
func (ms *MStar) QueryOpts(e *pathexpr.Expr, opt query.ValidateOpts) (query.Result, Strategy) {
	switch ms.opts.Strategy {
	case StrategyNaive:
		return ms.queryNaive(e, opt), StrategyNaive
	case StrategyBottomUp:
		return ms.queryBottomUp(e, opt), StrategyBottomUp
	case StrategyHybrid:
		return ms.queryHybrid(e, -1, opt), StrategyHybrid
	case StrategyAuto:
		return ms.queryAuto(e, opt)
	case StrategySubpath:
		if e.Rooted || e.HasDescendantStep() {
			return ms.queryNaive(e, opt), StrategyNaive
		}
		_, start, end := ms.estimateBestSubpath(e)
		return ms.querySubpath(e, start, end, opt), StrategySubpath
	default:
		return ms.queryTopDown(e, opt), StrategyTopDown
	}
}
