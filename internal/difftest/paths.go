package difftest

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"mrx/internal/baseline"
	"mrx/internal/core"
	"mrx/internal/engine"
	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/shard"
)

// ServingPath is one way of answering queries that the differential runner
// cross-checks against SlowEval: a static index, an adaptive index, one
// M*(k) evaluation strategy, or the concurrent engine.
type ServingPath struct {
	// Name identifies the path in failure messages (e.g. "mstar/subpath").
	Name string
	// Querier answers simple path expressions.
	Querier query.Querier
	// Support refines the index for a FUP; nil for static indexes. The
	// runner only passes wildcard-free expressions with a finite RequiredK
	// (the paper's FUP class).
	Support func(*pathexpr.Expr)
	// Check verifies the path's structural invariants; the runner calls it
	// after every refinement step. checkBisim additionally verifies P1
	// (extents k-bisimilar), which is expensive and meant for small graphs.
	Check func(checkBisim bool) error
	// Finish runs end-of-case checks (e.g. engine snapshot immutability).
	Finish func() error
}

// PathsOptions configures BuildPaths.
type PathsOptions struct {
	// AK is the A(k)-index resolution (default 2).
	AK int
	// UDK, UDL are the UD(k,l)-index resolutions (defaults 2, 2).
	UDK, UDL int
	// MaxK is the resolution cap of the capped M*(k) instance (default 2).
	MaxK int
	// Parallelism is the engine's validation worker-pool size (default 2,
	// so worker-pool validation is exercised without oversubscription).
	Parallelism int
	// Shards is the sharded engine's desired shard count (default 3; the
	// actual count is clamped to the graph's weak component count, so
	// single-component graphs exercise the one-shard degenerate case).
	Shards int
}

func (o *PathsOptions) defaults() {
	if o.AK <= 0 {
		o.AK = 2
	}
	if o.UDK <= 0 {
		o.UDK = 2
	}
	if o.UDL <= 0 {
		o.UDL = 2
	}
	if o.MaxK <= 0 {
		o.MaxK = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 2
	}
	if o.Shards <= 0 {
		o.Shards = 3
	}
}

// BuildPaths constructs every serving path of the repository over g:
// the 1-index, A(k), D(k) in both forms (workload construction and
// incremental promotion), UD(k,l), M(k), M*(k) under every evaluation
// strategy plus a MaxK-capped instance, and the concurrent engine. fups
// seeds the D(k) construction (only its wildcard-free bounded members are
// used; D(k)-construct supports nothing else).
func BuildPaths(g *graph.Graph, fups []*pathexpr.Expr, o PathsOptions) ([]*ServingPath, error) {
	o.defaults()
	var out []*ServingPath

	staticPath := func(name string, ig *index.Graph) {
		out = append(out, &ServingPath{
			Name:    name,
			Querier: query.AsQuerier(ig),
			Check:   ig.Validate,
		})
	}

	one, _ := baseline.OneIndex(g)
	staticPath("1index", one)
	staticPath(fmt.Sprintf("a%d", o.AK), baseline.AK(g, o.AK))

	dk, err := baseline.DKConstruct(g, Supportable(fups))
	if err != nil {
		return nil, fmt.Errorf("difftest: D(k) construction: %w", err)
	}
	staticPath("dk", dk)

	ud := baseline.NewUD(g, o.UDK, o.UDL)
	out = append(out, &ServingPath{
		Name:    fmt.Sprintf("ud%d,%d", o.UDK, o.UDL),
		Querier: ud,
		Check:   ud.Index().Validate,
	})

	dkp := baseline.NewDKPromote(g)
	out = append(out, &ServingPath{
		Name:    "dkpromote",
		Querier: dkp,
		Support: dkp.Support,
		Check:   dkp.Index().Validate,
	})

	mk := core.NewMK(g)
	out = append(out, &ServingPath{
		Name:    "mk",
		Querier: mk,
		Support: mk.Support,
		Check:   mk.Index().Validate,
	})

	for _, strat := range []core.Strategy{
		core.StrategyNaive, core.StrategyTopDown, core.StrategySubpath,
		core.StrategyBottomUp, core.StrategyHybrid, core.StrategyAuto,
	} {
		ms := core.NewMStarOpts(g, core.MStarOptions{Strategy: strat})
		out = append(out, &ServingPath{
			Name:    "mstar/" + strat,
			Querier: ms,
			Support: ms.Support,
			Check:   ms.Validate,
		})
	}

	capped := core.NewMStarOpts(g, core.MStarOptions{MaxK: o.MaxK})
	out = append(out, &ServingPath{
		Name:    fmt.Sprintf("mstar/maxk%d", o.MaxK),
		Querier: capped,
		Support: capped.Support,
		Check: func(checkBisim bool) error {
			if err := capped.Validate(checkBisim); err != nil {
				return err
			}
			if got := capped.NumComponents() - 1; got > o.MaxK {
				return fmt.Errorf("MaxK=%d index materialized resolution %d", o.MaxK, got)
			}
			return nil
		},
	})

	ep, err := enginePath(g, o)
	if err != nil {
		return nil, err
	}
	shp, err := shardedPath(g, o)
	if err != nil {
		return nil, err
	}
	out = append(out, frozenPath(g, core.StrategyTopDown), frozenPath(g, core.StrategySubpath),
		mmapPath(g), ep, shp)
	return out, nil
}

// frozenView serves from the frozen view it returns at call time (paths
// republish between queries) with sequential validation, through both the
// materialising and the count-only evaluation.
type frozenView func() *core.FrozenMStar

func (v frozenView) Query(e *pathexpr.Expr) query.Result {
	res, _ := v().QueryOpts(e, query.ValidateOpts{})
	return res
}

func (v frozenView) CountCtx(_ context.Context, e *pathexpr.Expr) (query.Result, error) {
	res, _ := v().QueryOpts(e, query.ValidateOpts{CountOnly: true})
	return res, nil
}

// frozenPath serves every query from a frozen CSR snapshot while refinement
// runs on the mutable twin, exercising the engine's freeze-at-publish
// lifecycle (including cross-generation component reuse via FreezeReusing)
// in isolation: Support refines the twin in place and re-freezes only the
// components whose version moved; Check proves the served snapshot is an
// exact flattening of the mutable index it was frozen from. The engines
// serve top-down; the subpath instance covers the frozen strategy whose
// descents may cross several components at once, or none.
func frozenPath(g *graph.Graph, strategy core.Strategy) *ServingPath {
	ms := core.NewMStarOpts(g, core.MStarOptions{Strategy: strategy})
	fz := ms.Freeze()
	name := "frozen"
	if strategy != core.StrategyTopDown {
		name += "/" + strategy
	}
	return &ServingPath{
		Name:    name,
		Querier: frozenView(func() *core.FrozenMStar { return fz }),
		Support: func(e *pathexpr.Expr) {
			res, _ := fz.QueryOpts(e, query.ValidateOpts{})
			base := ms.Versions()
			ms.Refine(e, res.Answer)
			fz = ms.FreezeReusing(base, fz)
		},
		Check: func(checkBisim bool) error {
			if err := ms.Validate(checkBisim); err != nil {
				return err
			}
			return fz.CheckAgainst(ms)
		},
	}
}

// mmapPath serves every query from a snapshot that has been round-tripped
// through the mmap snapshot format in full-verification mode: each
// refinement re-freezes the mutable index, encodes it (mmapstore.Write),
// reopens the bytes untrusted (checksums plus the deep structural walk),
// and serves the zero-copy view wired over them. Beyond answer equality —
// which the runner checks against SlowEval like any other path — it pins
// down the format's losslessness: re-encoding the mapped view must
// reproduce the heap snapshot's encoding byte for byte, every generation.
func mmapPath(g *graph.Graph) *ServingPath {
	ms := core.NewMStar(g)
	var mapped *core.FrozenMStar
	var tripErr error // first round-trip failure, surfaced by Check
	republish := func() {
		var buf bytes.Buffer
		if err := mmapstore.Write(&buf, ms.Freeze(), mmapstore.WriteOptions{}); err != nil {
			tripErr = fmt.Errorf("mmap path: encode: %w", err)
			return
		}
		snap, err := mmapstore.OpenBytes(buf.Bytes(), g, mmapstore.Options{})
		if err != nil {
			tripErr = fmt.Errorf("mmap path: open: %w", err)
			return
		}
		mapped = snap.FrozenMStar()
		var re bytes.Buffer
		if err := mmapstore.Write(&re, mapped, mmapstore.WriteOptions{}); err != nil {
			tripErr = fmt.Errorf("mmap path: re-encode: %w", err)
			return
		}
		if !bytes.Equal(re.Bytes(), buf.Bytes()) {
			tripErr = fmt.Errorf("mmap path: mapped view re-encodes differently from the heap snapshot")
		}
	}
	republish()
	return &ServingPath{
		Name:    "engine/mmap",
		Querier: frozenView(func() *core.FrozenMStar { return mapped }),
		Support: func(e *pathexpr.Expr) {
			if tripErr != nil {
				return // keep the first failure for Check, don't serve past it
			}
			ms.Support(e)
			republish()
		},
		Check: func(checkBisim bool) error {
			if tripErr != nil {
				return tripErr
			}
			if err := ms.Validate(checkBisim); err != nil {
				return err
			}
			// The mapped view must be an exact flattening of the mutable
			// index it was frozen and round-tripped from.
			return mapped.CheckAgainst(ms)
		},
	}
}

// enginePath wraps the concurrent engine and tracks every published
// snapshot: Check validates the writer's index after each refinement and
// Finish re-fingerprints the frozen views of all historical generations,
// failing if refinement ever mutated an already-published (immutable by
// contract) one.
func enginePath(g *graph.Graph, o PathsOptions) (*ServingPath, error) {
	en, err := engine.New(g, engine.Options{Parallelism: o.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("difftest: engine path: %w", err)
	}
	st := en.ShardState(0)
	var history published
	record := func() { history.record(fmt.Sprintf("engine generation %d", en.Generation()), st.Snapshot()) }
	record()
	sp := &ServingPath{
		Name:    "engine",
		Querier: en,
		Support: func(e *pathexpr.Expr) {
			if en.Support(e) {
				record()
			}
		},
		Check:  func(checkBisim bool) error { return checkWriter(st, checkBisim) },
		Finish: func() error { return history.check() },
	}
	return sp, nil
}

// shardedPath wraps the scatter-gather engine: queries scatter across the
// shard-local M*(k) snapshots and gather into one answer the runner
// compares against SlowEval like any other path. Check validates every
// shard's writer index and proves each served frozen view is an exact
// flattening of it — including after cross-generation component reuse,
// since each shard's Refine publishes via FreezeReusing. Finish
// re-fingerprints every published shard view, failing if refinement ever
// mutated one.
func shardedPath(g *graph.Graph, o PathsOptions) (*ServingPath, error) {
	en, err := engine.NewSharded(g, engine.ShardedOptions{Shards: o.Shards, Parallelism: o.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("difftest: sharded path: %w", err)
	}
	var history published
	record := func() {
		for i := 0; i < en.NumShards(); i++ {
			snap := en.ShardState(i).Snapshot()
			history.record(fmt.Sprintf("shard %d generation %d", i, snap.Gen), snap)
		}
	}
	record()
	sp := &ServingPath{
		Name:    fmt.Sprintf("engine/sharded%d", en.NumShards()),
		Querier: en,
		Support: func(e *pathexpr.Expr) {
			if en.Support(e) {
				record()
			}
		},
		Check: func(checkBisim bool) error {
			for i := 0; i < en.NumShards(); i++ {
				if err := checkWriter(en.ShardState(i), checkBisim); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
			}
			return nil
		},
		Finish: func() error { return history.check() },
	}
	return sp, nil
}

// Supportable filters an expression set down to the paper's FUP class:
// wildcard-free expressions with a finite required resolution. Only these
// are passed to Support and to the D(k) construction.
func Supportable(es []*pathexpr.Expr) []*pathexpr.Expr {
	var out []*pathexpr.Expr
	for _, e := range es {
		if !e.HasWildcard() && e.RequiredK() != pathexpr.Unbounded {
			out = append(out, e)
		}
	}
	return out
}

// Fingerprint hashes every array of a frozen M*(k) view — the complete
// state a reader can observe, component by component — so any write to a
// published (immutable by contract) view changes it.
func Fingerprint(fm *core.FrozenMStar) uint64 {
	h := fnv.New64a()
	var buf []byte
	for i := 0; i < fm.NumComponents(); i++ {
		a := fm.Component(i).Arrays()
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(i))
		buf = appendInts(buf, a.Retired)
		buf = appendInts(buf, a.Ks)
		buf = appendInts(buf, a.Labels)
		buf = appendInts(buf, a.ExtentStart)
		buf = appendInts(buf, a.ExtentArena)
		buf = appendInts(buf, a.ChildStart)
		buf = appendInts(buf, a.Children)
		buf = appendInts(buf, a.ParentStart)
		buf = appendInts(buf, a.Parents)
		buf = appendInts(buf, a.LabelStart)
		buf = appendInts(buf, a.LabelNodes)
		buf = appendInts(buf, a.NodeOf)
		h.Write(buf)
	}
	return h.Sum64()
}

// appendInts appends the length of xs and then its elements, little endian.
func appendInts[T ~int32](buf []byte, xs []T) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// published records the frozen views of every generation a shard published,
// with their fingerprints at publication.
type published []publishedView

type publishedView struct {
	what string
	fm   *core.FrozenMStar
	fp   uint64
}

// record fingerprints snap's heap view and, when it serves from a different
// one (a persisted remapping), that view too.
func (p *published) record(what string, snap *shard.Snap) {
	*p = append(*p, publishedView{what, snap.FZ, Fingerprint(snap.FZ)})
	if s := snap.Serving(); s != snap.FZ {
		*p = append(*p, publishedView{what + " (serving view)", s, Fingerprint(s)})
	}
}

// check re-fingerprints every recorded view.
func (p published) check() error {
	for _, v := range p {
		if Fingerprint(v.fm) != v.fp {
			return fmt.Errorf("%s mutated after publication", v.what)
		}
	}
	return nil
}

// checkWriter validates a locked copy of st's writer index and proves the
// generation published from it an exact flattening of it — including after
// FreezeReusing carried components across generations.
func checkWriter(st *shard.State, checkBisim bool) error {
	ms, snap := st.CopyIndex()
	if err := ms.Validate(checkBisim); err != nil {
		return err
	}
	return snap.FZ.CheckAgainst(ms)
}
