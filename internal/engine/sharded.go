package engine

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mrx/internal/adapt"
	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/shard"
)

// ShardedOptions configures a Sharded engine.
type ShardedOptions struct {
	// Shards is the desired shard count; the actual count is clamped to the
	// number of weakly-connected components in the data graph (a component
	// is indivisible). Values <= 0 default to runtime.GOMAXPROCS(0).
	Shards int

	// MStar configures every shard-local M*(k)-index. A zero
	// MStar.Parallelism inherits the engine's Parallelism.
	MStar core.MStarOptions

	// Parallelism bounds the validation worker pool per query, divided
	// across the shards a query scatters to, and every freeze fan-out: the
	// initial per-shard freezes in NewSharded and, through MStar, the
	// per-component freezes of each publish. Values <= 0 default to
	// runtime.GOMAXPROCS(0). The served snapshots are byte-identical for
	// every value; only wall-clock changes.
	Parallelism int

	// AutoTune enables adaptive tuning exactly as Options.AutoTune does;
	// promotions and retirements fan out to the owning shards.
	AutoTune *adapt.Config

	// Persist, when non-nil, makes every shard disk-resident: shard i
	// publishes each of its generations atomically to Dir/shard-NNN.mrx
	// and serves from the trusted zero-copy remapping. Shards publish
	// independently — a refinement republishes only the shard it touched.
	// NewSharded fails if any shard's initial publish fails; runtime
	// failures degrade that shard's generation to heap serving and count in
	// StatsSnapshot.PersistErrors (and per shard in ShardStats).
	Persist *PersistOptions
}

// Validate rejects plainly invalid options with a wrapped error, mirroring
// Options.Validate; zero values mean "unset" and select the documented
// defaults. Negative shard or worker counts are caller bugs, not requests
// for the default.
func (o ShardedOptions) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("engine: %w: Shards %d (zero means GOMAXPROCS)", errInvalidOption, o.Shards)
	}
	return Options{MStar: o.MStar, AutoTune: o.AutoTune, Parallelism: o.Parallelism, Persist: o.Persist}.Validate()
}

// Sharded serves structural-index queries over a data graph partitioned
// into shard-local M*(k)-indexes (package shard). Each shard owns an
// independent generation-numbered snapshot behind its own write lock, so
// refinements on different shards proceed concurrently and a publish swaps
// one shard's atomic pointer without touching the rest. Queries scatter to
// the shards that can match (shard.Covers), evaluate each shard-local
// frozen snapshot — in parallel when more than one shard is involved — and
// gather the disjoint per-shard answers into one globally sorted Result.
//
// Weak components never share an expression instance, so the union of
// shard answers equals the monolithic Engine's answer exactly; package
// difftest cross-checks this continuously. The zero Sharded is not usable;
// construct with NewSharded.
type Sharded struct {
	data    *graph.Graph
	di      *query.DataIndex
	workers int

	shards []*shard.State

	// perShardQueries counts shard-local evaluations (not client queries:
	// one scattered query bumps every shard it touches).
	perShardQueries []atomic.Uint64

	tuner *adapt.Tuner

	stats stats
}

// The sharded engine serves through the same interface as the monolithic
// one; the network layer cannot tell them apart.
var _ query.ContextQuerier = (*Sharded)(nil)
var _ query.CountQuerier = (*Sharded)(nil)
var _ adapt.Target = (*Sharded)(nil)

// NewSharded partitions g along weak component boundaries (see
// shard.Partition), builds one M*(k)-index per shard, and freezes them
// across a bounded worker pool. It fails with a wrapped error when opts is
// plainly invalid.
func NewSharded(g *graph.Graph, opts ShardedOptions) (*Sharded, error) {
	return newSharded(g, opts, "")
}

// newSharded is NewSharded with a persist file name for a one-shard
// engine: a non-empty fileName replaces shard-000.mrx. New passes one, and
// always asks for a single shard.
func newSharded(g *graph.Graph, opts ShardedOptions, fileName string) (*Sharded, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	opts.MStar = opts.MStar.WithParallelism(opts.Parallelism)
	parts, err := shard.Partition(g, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("engine: sharded: %w", err)
	}
	en := &Sharded{
		data:            g,
		di:              query.NewDataIndex(g),
		workers:         opts.Parallelism,
		shards:          make([]*shard.State, len(parts)),
		perShardQueries: make([]atomic.Uint64, len(parts)),
	}
	for i, sh := range parts {
		en.shards[i] = shard.NewState(sh, opts.MStar)
		if opts.Persist != nil {
			name := fileName
			if name == "" {
				name = fmt.Sprintf("shard-%03d.mrx", i)
			}
			en.shards[i].EnablePersist(filepath.Join(opts.Persist.Dir, name), opts.Persist.Compact)
		}
	}
	en.freezeAll(opts.Parallelism)
	if opts.Persist != nil {
		// The initial publishes fail hard: a disk-resident engine that
		// cannot write its directory is misconfigured, not degraded.
		for i, st := range en.shards {
			if err := st.PersistErr(); err != nil {
				return nil, fmt.Errorf("engine: persist shard %d: %w", i, err)
			}
		}
	}
	if opts.AutoTune != nil {
		en.tuner = adapt.NewTuner(en, *opts.AutoTune)
	}
	return en, nil
}

// freezeAll runs the initial per-shard freezes across at most workers
// goroutines. Shard freezes are independent, so the worker count changes
// wall-clock only, never the published snapshots.
func (en *Sharded) freezeAll(workers int) {
	if workers > len(en.shards) {
		workers = len(en.shards)
	}
	if workers <= 1 {
		for _, st := range en.shards {
			st.FreezeInitial()
		}
		return
	}
	// Strided work split: worker w freezes shards w, w+workers, ... Shard
	// freezes are independent, so any split yields the same snapshots.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(en.shards); i += workers {
				en.shards[i].FreezeInitial()
			}
		}(w)
	}
	wg.Wait()
}

// Data returns the underlying (global) data graph.
func (en *Sharded) Data() *graph.Graph { return en.data }

// DataIndex returns the shared ground-truth evaluator over the global
// graph; it is safe for concurrent use.
func (en *Sharded) DataIndex() *query.DataIndex { return en.di }

// Eval computes the exact answer of e on the global data graph (ground
// truth; no index, no cost metric).
func (en *Sharded) Eval(e *pathexpr.Expr) []graph.NodeID { return en.di.Eval(e) }

// NumShards returns the number of shards actually built (at most
// ShardedOptions.Shards, clamped to the component count).
func (en *Sharded) NumShards() int { return len(en.shards) }

// ShardState returns shard i's snapshot lifecycle; difftest and tests use
// it to validate shard-local indexes directly.
func (en *Sharded) ShardState(i int) *shard.State { return en.shards[i] }

// Generation reports the total number of shard snapshots published since
// construction — the sum of the per-shard generation counters (one global
// number keeps the serving layer's generation gauge meaningful).
func (en *Sharded) Generation() uint64 {
	var g uint64
	for _, st := range en.shards {
		g += st.Generation()
	}
	return g
}

// Query evaluates e by scattering to the covering shards and gathering
// their answers. It is safe to call from any number of goroutines.
func (en *Sharded) Query(e *pathexpr.Expr) query.Result {
	return en.query(e, query.ValidateOpts{Workers: en.workers})
}

// QueryCtx is Query with cancellation, making Sharded a
// query.ContextQuerier: validation on every shard polls ctx and aborts once
// it is done, returning ctx's error.
func (en *Sharded) QueryCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	return en.queryCtx(ctx, e, false)
}

// CountCtx is QueryCtx without the answer (see Engine.CountCtx), making
// Sharded a query.CountQuerier: the per-shard counts are summed, and no
// shard answer is mapped to global ids or merged.
func (en *Sharded) CountCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	return en.queryCtx(ctx, e, true)
}

func (en *Sharded) queryCtx(ctx context.Context, e *pathexpr.Expr, countOnly bool) (query.Result, error) {
	if err := ctx.Err(); err != nil {
		en.stats.canceled.Add(1)
		return query.Result{}, err
	}
	res := en.query(e, query.ValidateOpts{
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

// query is the scatter-gather read path: route (prune shards that cannot
// match), evaluate each routed shard's frozen snapshot — concurrently when
// the route has more than one shard, dividing the validation worker budget
// across them — and merge the shard-local results into one global Result.
// A one-shard engine skips all of that: its shard is the whole graph, so
// its serving view is evaluated directly and its ids are already global.
//
//mrx:hotpath engine snapshot read path
func (en *Sharded) query(e *pathexpr.Expr, opt query.ValidateOpts) query.Result {
	start := time.Now()
	if len(en.shards) == 1 {
		en.perShardQueries[0].Add(1)
		res, strategy := en.shards[0].Snapshot().Serving().QueryOpts(e, opt)
		en.record(e, strategy, &res, time.Since(start))
		return res
	}
	route := en.route(e)
	var res query.Result
	var strategy core.Strategy
	switch len(route) {
	case 0:
		// No shard can match (an unknown label, or a rooted expression whose
		// first label is absent from the root's shard): the answer is empty
		// and provably needed no validation.
		res = query.Result{Precise: true}
		strategy = strategyNames[0]
	case 1:
		res, strategy = en.queryShard(route[0], e, opt)
	default:
		parts := make([]query.Result, len(route))
		picks := make([]core.Strategy, len(route))
		// Divide the validation budget so a scattered query uses about the
		// same total worker count as a monolithic one.
		per := opt
		per.Workers = opt.Workers / len(route)
		if per.Workers < 1 {
			per.Workers = 1
		}
		var wg sync.WaitGroup
		for i := range route {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				parts[i], picks[i] = en.queryShard(route[i], e, per)
			}(i)
		}
		wg.Wait()
		// Every shard runs the same configured strategy; label the merged
		// result with the first shard's resolved pick.
		strategy = picks[0]
		if opt.CountOnly {
			res = sumResults(parts)
		} else {
			res = mergeResults(parts)
		}
	}
	en.record(e, strategy, &res, time.Since(start))
	return res
}

// record bumps the serving counters for one answered query and feeds the
// tuner's sketch: one probe with atomic counter bumps, no allocation for an
// already tracked expression.
func (en *Sharded) record(e *pathexpr.Expr, strategy core.Strategy, res *query.Result, elapsed time.Duration) {
	en.stats.recordQuery(strategy, res.Cost.IndexNodes, res.Cost.DataNodes, res.Precise, elapsed)
	if t := en.tuner; t != nil {
		t.Observe(e, elapsed, res.Cost.DataNodes, res.Precise)
	}
}

// route returns the indexes of the shards that can possibly answer e, in
// shard order.
func (en *Sharded) route(e *pathexpr.Expr) []int {
	out := make([]int, 0, len(en.shards))
	for i, st := range en.shards {
		if st.Shard().Covers(e) {
			out = append(out, i)
		}
	}
	return out
}

// queryShard evaluates e on one shard's frozen snapshot and rewrites the
// answer into global node IDs.
func (en *Sharded) queryShard(i int, e *pathexpr.Expr, opt query.ValidateOpts) (query.Result, core.Strategy) {
	st := en.shards[i]
	en.perShardQueries[i].Add(1)
	res, strategy := st.Snapshot().Serving().QueryOpts(e, opt)
	if !opt.CountOnly {
		toGlobalAnswer(&res, st.Shard())
	}
	return res, strategy
}

// toGlobalAnswer maps a shard-local answer to global node IDs in place.
// The mapping is monotone ascending, so the answer stays sorted; the
// shard-local index-node view (Targets) is dropped — it is meaningless
// outside its shard.
//
//mrx:hotpath sharded scatter-gather merge path
func toGlobalAnswer(res *query.Result, sh *shard.Shard) {
	for i, v := range res.Answer {
		res.Answer[i] = sh.ToGlobal(v)
	}
	res.Targets = nil
}

// sumResults gathers per-shard results into one global Result's count,
// costs and precision (precise only when every shard was): everything but
// the answer itself, which is all a count-only query needs.
func sumResults(parts []query.Result) query.Result {
	out := query.Result{Precise: true}
	for i := range parts {
		out.Count += parts[i].Count
		out.Cost.Add(parts[i].Cost)
		out.Precise = out.Precise && parts[i].Precise
	}
	return out
}

// mergeResults is sumResults plus a k-way merge of the (disjoint, globally
// sorted) shard answers.
//
//mrx:hotpath sharded scatter-gather merge path
func mergeResults(parts []query.Result) query.Result {
	out := sumResults(parts)
	total := 0
	for i := range parts {
		total += len(parts[i].Answer)
	}
	out.Count = total
	merged := make([]graph.NodeID, 0, total)
	heads := make([]int, len(parts))
	for len(merged) < total {
		best := -1
		for i := range parts {
			if heads[i] >= len(parts[i].Answer) {
				continue
			}
			if best < 0 || parts[i].Answer[heads[i]] < parts[best].Answer[heads[best]] {
				best = i
			}
		}
		merged = append(merged, parts[best].Answer[heads[best]])
		heads[best]++
	}
	out.Answer = merged
	return out
}

// Support refines every shard e can match on, in shard order, locking only
// one shard at a time: concurrent Support calls for expressions owned by
// different shards do not serialize. It reports whether any shard
// published a new snapshot. Each shard publish counts one refinement; a
// call that published on no shard counts one skip.
func (en *Sharded) Support(e *pathexpr.Expr) bool {
	published := false
	for _, i := range en.route(e) {
		if en.shards[i].Refine(e, query.ValidateOpts{Workers: en.workers}) {
			published = true
			en.stats.refinements.Add(1)
			en.stats.publishes.Add(1)
		}
	}
	if !published {
		en.stats.refinesSkipped.Add(1)
	}
	return published
}

// Retire withdraws support for e on every shard that refined it. It
// reports whether any shard published a rebuilt snapshot.
func (en *Sharded) Retire(e *pathexpr.Expr) bool {
	published := false
	for _, st := range en.shards {
		if st.Retire(e) {
			published = true
			en.stats.retirements.Add(1)
			en.stats.publishes.Add(1)
		}
	}
	if !published {
		en.stats.retiresSkipped.Add(1)
	}
	return published
}

// SupportedFUPs returns the union of the shard registries, deduplicated
// and sorted by canonical form, reading each registry under its shard's
// write lock. Together with Support and Retire this makes Sharded an
// adapt.Target.
func (en *Sharded) SupportedFUPs() []*pathexpr.Expr {
	byKey := make(map[string]*pathexpr.Expr)
	for _, st := range en.shards {
		for _, e := range st.SupportedFUPs() {
			byKey[pathexpr.Canonical(e)] = e
		}
	}
	out := make([]*pathexpr.Expr, 0, len(byKey))
	for _, k := range slices.Sorted(maps.Keys(byKey)) {
		out = append(out, byKey[k])
	}
	return out
}

// Tuner returns the adaptive tuner, or nil when ShardedOptions.AutoTune
// was nil.
func (en *Sharded) Tuner() *adapt.Tuner { return en.tuner }

// Close stops and joins the background tuning goroutine, if any; it is
// idempotent and harmless without AutoTune.
func (en *Sharded) Close() {
	if t := en.tuner; t != nil {
		t.Close()
	}
}

// Stats returns a point-in-time copy of the serving counters, including
// one ShardStats entry per shard.
func (en *Sharded) Stats() StatsSnapshot {
	snap := en.stats.snapshot(en.Generation())
	snap.Shards = make([]ShardStats, len(en.shards))
	for i, st := range en.shards {
		sh := st.Shard()
		freezes, last, total := st.FreezeStats()
		snap.Shards[i] = ShardStats{
			Shard:         i,
			Nodes:         sh.NumNodes(),
			Components:    sh.Components(),
			HasRoot:       sh.HasRoot(),
			Generation:    st.Generation(),
			PersistErrors: st.PersistErrors(),
			Queries:       en.perShardQueries[i].Load(),
			Freezes:       freezes,
			LastFreeze:    last,
			TotalFreeze:   total,
		}
		snap.PersistErrors += st.PersistErrors()
	}
	if t := en.tuner; t != nil {
		ts := t.Snapshot()
		snap.AutoTune = &ts
	}
	return snap
}
