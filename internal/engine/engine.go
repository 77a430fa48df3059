// Package engine serves structural-index queries to many goroutines
// concurrently while the index keeps adapting to the workload.
//
// The concurrency model is copy-on-write with generation-numbered
// snapshots, split into a mutable write side and an immutable read side.
// Readers never block: Query loads the current snapshot through an atomic
// pointer and evaluates against its frozen M*(k)-index — a CSR-flattened
// core.FrozenMStar that contains no maps at all — lock-free and with
// deterministic traversal order. Writers serialize on a mutex: Support
// clones the current snapshot's mutable index graphs (reusing the Clone
// machinery of package index), applies REFINE* to the private copy,
// re-freezes only the components whose version changed (FreezeReusing),
// and publishes the pair with a single atomic pointer swap that bumps the
// generation. A reader that loaded the old snapshot mid-query finishes
// against arrays no one will ever mutate again; the next query observes
// the refined generation. This realizes the paper's operational loop
// (Figure 5: serve, extract FUPs, refine, repeat) under concurrent load.
//
// Inside a single query, validation of under-refined answers — the dominant
// cost term of the paper's metric — fans out across a bounded worker pool
// (Options.Parallelism, default GOMAXPROCS); see query.ValidateOpts.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mrx/internal/adapt"
	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// Options configures an Engine.
type Options struct {
	// MStar configures the adaptive M*(k)-index the engine serves from
	// (resolution cap, query strategy, per-index validation parallelism).
	// A zero MStar.Parallelism inherits the engine's Parallelism.
	MStar core.MStarOptions

	// Parallelism bounds the validation worker pool per query. Values <= 0
	// default to runtime.GOMAXPROCS(0).
	Parallelism int

	// AutoTune, when non-nil, enables online workload tracking and adaptive
	// tuning (package adapt): every served query feeds a bounded frequency
	// sketch, and a tuner promotes sustained-hot expressions (Support) and
	// retires cooled-off FUPs (Retire) at epoch boundaries. A positive
	// AutoTune.Interval runs epochs from a background goroutine — call
	// Close to stop and join it; a zero Interval leaves epoch stepping to
	// the caller via Tuner().Step(). When AutoTune is nil the serving path
	// carries no tracking cost beyond one nil check.
	AutoTune *adapt.Config

	// Persist, when non-nil, makes the engine disk-resident: every
	// published generation is atomically written to Persist.Dir as an
	// mmapstore snapshot and queries are served from the trusted zero-copy
	// remapping of that file. New fails if the initial publish fails; a
	// republish failure at runtime degrades that generation to heap serving
	// and bumps StatsSnapshot.PersistErrors.
	Persist *PersistOptions
}

// Validate rejects plainly invalid options with a wrapped error. Zero
// values still select the documented defaults (they mean "unset"), but a
// negative worker count, a negative resolution cap, an unknown strategy
// name, or a nonsensical tuner configuration is a caller bug that silent
// defaulting would hide; New refuses to construct an engine from one.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("engine: %w: Parallelism %d (zero means GOMAXPROCS)", errInvalidOption, o.Parallelism)
	}
	if o.MStar.Parallelism < 0 {
		return fmt.Errorf("engine: %w: MStar.Parallelism %d (zero inherits the engine's)", errInvalidOption, o.MStar.Parallelism)
	}
	if o.MStar.MaxK < 0 {
		return fmt.Errorf("engine: %w: MStar.MaxK %d (zero means unlimited)", errInvalidOption, o.MStar.MaxK)
	}
	if o.MStar.Strategy != "" && !validStrategy(o.MStar.Strategy) {
		return fmt.Errorf("engine: %w: unknown strategy %q", errInvalidOption, o.MStar.Strategy)
	}
	if o.AutoTune != nil {
		if err := o.AutoTune.Validate(); err != nil {
			return fmt.Errorf("engine: %w: %w", errInvalidOption, err)
		}
	}
	if o.Persist != nil && o.Persist.Dir == "" {
		return fmt.Errorf("engine: %w: Persist with empty Dir", errInvalidOption)
	}
	return nil
}

// validStrategy reports whether s names one of the M*(k) query-evaluation
// strategies ("static" is the engine's internal label for Register'd
// indexes and is not configurable).
func validStrategy(s core.Strategy) bool {
	for _, n := range strategyNames[:numStrategies-1] {
		if n == s {
			return true
		}
	}
	return false
}

// errInvalidOption is the sentinel wrapped by every Validate failure, so
// callers can errors.Is their way to "the configuration, not the data, was
// bad".
var errInvalidOption = errors.New("invalid option")

// snapshot is one immutable generation of the served index: the mutable
// M*(k)-index refinement state (never mutated once published — the next
// writer clones it), its heap-frozen read-path view, and the view queries
// actually read. Without persistence serve is fz itself. With persistence
// serve is the trusted zero-copy remapping of fz's on-disk publish, while
// fz stays the writer-side chain: the next refinement probes and
// FreezeReusing-shares against heap arrays, never against mapped bytes, so
// a superseded generation's mapping can be released the moment its last
// reader drops it without invalidating anything the successor shares.
type snapshot struct {
	gen   uint64
	ms    *core.MStar
	fz    *core.FrozenMStar
	serve *core.FrozenMStar
}

// Engine owns a data graph plus a set of structural indexes and serves
// queries from many goroutines. See the package comment for the concurrency
// model. The zero Engine is not usable; construct with New.
type Engine struct {
	data    *graph.Graph
	di      *query.DataIndex // shared ground-truth evaluator
	workers int

	mu   sync.Mutex // serializes writers (Support/refinement)
	snap atomic.Pointer[snapshot]

	staticsMu sync.RWMutex
	statics   map[string]query.Querier

	// tuner is non-nil when Options.AutoTune enabled adaptive tuning; the
	// query hot path checks it once per query.
	tuner *adapt.Tuner

	// persist is non-nil when Options.Persist made the engine
	// disk-resident; every publish routes through it.
	persist *persister

	stats stats
}

// The engine is the canonical ContextQuerier: the serving layer consumes
// nothing else of it on the query path.
var _ query.ContextQuerier = (*Engine)(nil)
var _ query.CountQuerier = (*Engine)(nil)

// New creates an engine serving queries over g through an adaptive
// M*(k)-index initialized at component I0. It fails with a wrapped error
// when opts is plainly invalid (see Options.Validate); zero-valued fields
// select the documented defaults.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.MStar.Parallelism == 0 {
		//mrlint:allow snapshotmut local options value, not a published snapshot
		opts.MStar.Parallelism = opts.Parallelism
	}
	en := &Engine{
		data:    g,
		di:      query.NewDataIndex(g),
		workers: opts.Parallelism,
		statics: make(map[string]query.Querier),
	}
	ms := core.NewMStarOpts(g, opts.MStar)
	fz := ms.Freeze()
	first := &snapshot{ms: ms, fz: fz, serve: fz}
	if opts.Persist != nil {
		en.persist = newPersister(*opts.Persist, persistFile, g, opts.MStar)
		// The initial publish fails hard: an engine configured as
		// disk-resident that cannot write its directory is misconfigured,
		// and silently degrading would hide it until the first restart.
		mapped, err := en.persist.republish(fz)
		if err != nil {
			return nil, err
		}
		first.serve = mapped
	}
	en.snap.Store(first)
	if opts.AutoTune != nil {
		en.tuner = adapt.NewTuner(en, *opts.AutoTune)
	}
	return en, nil
}

// Data returns the underlying data graph.
func (en *Engine) Data() *graph.Graph { return en.data }

// DataIndex returns the engine's shared ground-truth evaluator; it is safe
// for concurrent use.
func (en *Engine) DataIndex() *query.DataIndex { return en.di }

// Snapshot returns the mutable-representation M*(k)-index of the current
// generation. The result is immutable — refinement never mutates a
// published snapshot — so callers may inspect it (sizes, components,
// validation) without coordination.
func (en *Engine) Snapshot() *core.MStar { return en.snap.Load().ms }

// FrozenSnapshot returns the heap-frozen M*(k)-index view of the current
// generation. It is immutable by construction. Under Options.Persist this
// is the canonical writer-side view the on-disk snapshot was encoded from,
// not the mapped view queries read — use ServingSnapshot for that; the two
// answer identically (the difftest suite and the mmapstore round-trip tests
// pin this down byte for byte).
func (en *Engine) FrozenSnapshot() *core.FrozenMStar { return en.snap.Load().fz }

// ServingSnapshot returns the frozen view queries are actually evaluated
// against: the disk-backed zero-copy mapping when Options.Persist is active
// (and the generation's republish succeeded), the heap view otherwise.
func (en *Engine) ServingSnapshot() *core.FrozenMStar { return en.snap.Load().serve }

// Generation reports how many refined snapshots have been published.
func (en *Engine) Generation() uint64 { return en.snap.Load().gen }

// Query evaluates e against the current snapshot with the configured
// strategy, validating under-refined answers across the worker pool. It is
// safe to call from any number of goroutines.
func (en *Engine) Query(e *pathexpr.Expr) query.Result {
	res, _ := en.query(e, query.ValidateOpts{Workers: en.workers})
	return res
}

// QueryCtx is Query with cancellation: validation polls ctx and aborts once
// it is done, returning ctx's error. Traversal of the index graph itself is
// not interruptible (it is the cheap part of the paper's cost metric).
// QueryCtx makes Engine a query.ContextQuerier, the interface the network
// serving layer consumes.
func (en *Engine) QueryCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	return en.queryCtx(ctx, e, false)
}

// CountCtx is QueryCtx without the answer: it returns Result.Count, Cost and
// Precise exactly as QueryCtx would, but never copies an id (a precise
// answer is the sum of its extents' lengths). It makes Engine a
// query.CountQuerier, which the network serving layer uses for every
// request that did not ask for the ids.
func (en *Engine) CountCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	return en.queryCtx(ctx, e, true)
}

func (en *Engine) queryCtx(ctx context.Context, e *pathexpr.Expr, countOnly bool) (query.Result, error) {
	if err := ctx.Err(); err != nil {
		en.stats.canceled.Add(1)
		return query.Result{}, err
	}
	res, _ := en.query(e, query.ValidateOpts{
		Workers:   en.workers,
		Stop:      func() bool { return ctx.Err() != nil },
		CountOnly: countOnly,
	})
	if err := ctx.Err(); err != nil {
		en.stats.canceled.Add(1)
		return query.Result{}, err
	}
	return res, nil
}

// query is the shared snapshot read path under Query/QueryCtx/QueryNamed:
// one atomic snapshot load, the frozen strategy dispatch, counter bumps and
// the tracker's sketch probe.
//
//mrx:hotpath engine snapshot read path
func (en *Engine) query(e *pathexpr.Expr, opt query.ValidateOpts) (query.Result, core.Strategy) {
	s := en.snap.Load()
	start := time.Now()
	res, strategy := s.serve.QueryOpts(e, opt)
	elapsed := time.Since(start)
	en.stats.recordQuery(strategy, res.Cost.IndexNodes, res.Cost.DataNodes, res.Precise, elapsed)
	if t := en.tuner; t != nil {
		// The workload hook: one sketch probe with atomic counter bumps, no
		// allocation for already tracked expressions.
		t.Observe(e, elapsed, res.Cost.DataNodes, res.Precise)
	}
	return res, strategy
}

// Register attaches a static (non-adaptive) index under a name, served
// through QueryNamed; registering nil removes the name. Typical use is
// serving an A(k)- or 1-index side by side with the adaptive snapshot for
// comparison traffic.
func (en *Engine) Register(name string, q query.Querier) {
	en.staticsMu.Lock()
	defer en.staticsMu.Unlock()
	if q == nil {
		delete(en.statics, name)
		return
	}
	en.statics[name] = q
}

// QueryNamed evaluates e over the static index registered under name.
func (en *Engine) QueryNamed(name string, e *pathexpr.Expr) (query.Result, error) {
	en.staticsMu.RLock()
	q, ok := en.statics[name]
	en.staticsMu.RUnlock()
	if !ok {
		return query.Result{}, fmt.Errorf("engine: no index registered under %q", name)
	}
	start := time.Now()
	res := q.Query(e)
	en.stats.recordQuery(strategyStatic, res.Cost.IndexNodes, res.Cost.DataNodes, res.Precise, time.Since(start))
	return res, nil
}

// Eval computes the exact answer of e on the data graph through the shared
// DataIndex (ground truth; no index, no cost metric).
func (en *Engine) Eval(e *pathexpr.Expr) []graph.NodeID { return en.di.Eval(e) }

// Support refines the served index so the FUP e is answered precisely,
// without blocking readers: the current snapshot is cloned, REFINE* runs on
// the private copy, and the result is published atomically. Support calls
// serialize with each other. It reports whether a new snapshot was
// published, and is a documented no-op — no probe query, no clone — when
// the expression is already supported: the FUP registry remembers every
// refined expression, refinement is monotone, and the component version
// counters guarantee a republish would be byte-identical (UnchangedSince
// catches the residual cases the registry cannot see, such as a FUP made
// precise as a side effect of refining another).
func (en *Engine) Support(e *pathexpr.Expr) bool {
	en.mu.Lock()
	defer en.mu.Unlock()

	cur := en.snap.Load()
	if cur.ms.HasFUP(e) {
		// Already supported at its (possibly MaxK-capped) resolution.
		en.stats.refinesSkipped.Add(1)
		return false
	}
	res, _ := cur.fz.QueryOpts(e, query.ValidateOpts{Workers: en.workers})
	if res.Precise {
		en.stats.refinesSkipped.Add(1)
		return false
	}
	clone := cur.ms.Clone()
	clone.Refine(e, res.Answer)
	if clone.UnchangedSince(cur.ms) {
		// MaxK cap (or a descendant-axis FUP) made refinement a no-op;
		// don't publish an identical snapshot. Clone preserves component
		// versions and versions only advance on observable mutations, so
		// an unchanged version vector detects this without walking the
		// graphs.
		en.stats.refinesSkipped.Add(1)
		return false
	}
	// Re-freeze only the components the refinement dirtied; untouched ones
	// are shared with the outgoing snapshot.
	fz := clone.FreezeReusing(cur.ms, cur.fz)
	en.publish(&snapshot{gen: cur.gen + 1, ms: clone, fz: fz})
	en.stats.refinements.Add(1)
	return true
}

// publish stores next as the current generation. With persistence enabled
// the heap-frozen view is first atomically republished to disk and next
// serves from the trusted remapping; a republish failure leaves next
// serving the heap view (readers are never left behind the write side) and
// is surfaced through the persistErrors counter. Callers hold en.mu.
func (en *Engine) publish(next *snapshot) {
	next.serve = next.fz
	if en.persist != nil {
		if mapped, err := en.persist.republish(next.fz); err != nil {
			en.stats.persistErrors.Add(1)
		} else {
			next.serve = mapped
		}
	}
	en.snap.Store(next)
	en.stats.publishes.Add(1)
}

// Retire withdraws support for a previously refined FUP by rebuilding the
// index from the registry of surviving expressions (core.Retire) and
// publishing the result as a new generation. Like Support it serializes
// with other writers and never blocks readers. It reports whether a new
// snapshot was published; retiring an expression that was never refined on
// this engine (or one lost to a store round-trip) is a no-op.
func (en *Engine) Retire(e *pathexpr.Expr) bool {
	en.mu.Lock()
	defer en.mu.Unlock()

	cur := en.snap.Load()
	rebuilt, ok := cur.ms.Retire(e)
	if !ok {
		en.stats.retiresSkipped.Add(1)
		return false
	}
	// The rebuild starts from a fresh I0, so no component of the outgoing
	// frozen view can be reused: freeze from scratch.
	en.publish(&snapshot{gen: cur.gen + 1, ms: rebuilt, fz: rebuilt.Freeze()})
	en.stats.retirements.Add(1)
	return true
}

// SupportedFUPs lists the FUPs recorded by the current snapshot's registry,
// sorted by canonical form. Together with Support and Retire this makes
// Engine an adapt.Target.
func (en *Engine) SupportedFUPs() []*pathexpr.Expr {
	return en.snap.Load().ms.SupportedFUPs()
}

// Tuner returns the adaptive tuner, or nil when Options.AutoTune was nil.
// With a zero AutoTune.Interval the caller drives epochs via Tuner().Step().
func (en *Engine) Tuner() *adapt.Tuner { return en.tuner }

// Close stops and joins the background tuning goroutine, if any. It is
// idempotent; an engine without AutoTune (or with manual stepping) needs no
// Close, but calling it is harmless.
func (en *Engine) Close() {
	if t := en.tuner; t != nil {
		t.Close()
	}
}

// Stats returns a point-in-time copy of the serving counters.
func (en *Engine) Stats() StatsSnapshot {
	snap := en.stats.snapshot(en.Generation())
	if t := en.tuner; t != nil {
		ts := t.Snapshot()
		snap.AutoTune = &ts
	}
	return snap
}
