package mrx

import (
	"mrx/internal/adapt"
	"mrx/internal/engine"
)

// Engine serves structural-index queries to many goroutines concurrently
// while the index keeps adapting to the workload, realizing the paper's
// operational loop (Figure 5: serve, extract FUPs, refine, repeat) under
// concurrent load.
//
// Readers never block: Query evaluates against an immutable generation-
// numbered snapshot loaded through an atomic pointer — a FrozenMStar, the
// CSR-flattened map-free view of the M*(k)-index. Refinement (Support)
// refines the writer's own mutable index in place, re-freezes only the
// components the refinement touched, and publishes the frozen view
// atomically; concurrent Support calls serialize. Snapshot returns a copy
// of the writer's index, taken under its lock. Validation inside a query fans out
// across a bounded worker pool. An Engine is a ShardedEngine with one shard
// that owns the whole graph, so it shares that engine's methods, counters
// (EngineStats.Shards has one entry) and snapshot lifecycle. See package
// mrx/internal/engine for the full concurrency model.
type Engine = engine.Engine

// EngineOptions configures an Engine: the adaptive index's options and the
// validation worker-pool size (default GOMAXPROCS).
type EngineOptions = engine.Options

// EngineStats is a point-in-time copy of an engine's serving counters:
// queries served, validation work, refinements applied, snapshots
// published, and per-strategy latency histograms.
type EngineStats = engine.StatsSnapshot

// NewEngine creates a concurrent serving engine over g. It fails with a
// wrapped error when opts is plainly invalid (negative parallelism, a
// negative resolution cap, an unknown strategy, or a nonsensical AutoTune
// configuration); zero-valued fields select the documented defaults.
func NewEngine(g *Graph, opts EngineOptions) (*Engine, error) { return engine.New(g, opts) }

// ShardedEngine serves queries over a data graph partitioned into
// shard-local M*(k)-indexes along weakly-connected component boundaries
// (package mrx/internal/shard). Each shard owns an independent snapshot
// behind its own write lock, so refinements on different shards proceed
// concurrently and freezes fan out across a bounded worker pool; queries
// scatter to the shards that can match and gather the disjoint per-shard
// answers into one globally sorted result, identical to the monolithic
// Engine's.
type ShardedEngine = engine.Sharded

// ShardedEngineOptions configures a ShardedEngine: the desired shard count
// and the same index/validation options as EngineOptions, whose Parallelism
// also bounds the shard and component freeze fan-out.
type ShardedEngineOptions = engine.ShardedOptions

// ShardStats is the per-shard slice of a ShardedEngine's EngineStats.
type ShardStats = engine.ShardStats

// NewShardedEngine creates a sharded serving engine over g. The shard
// count is clamped to the number of weakly-connected components; a
// single-component graph yields one shard and behaves like a monolithic
// Engine.
func NewShardedEngine(g *Graph, opts ShardedEngineOptions) (*ShardedEngine, error) {
	return engine.NewSharded(g, opts)
}

// EnginePersistOptions makes an engine disk-resident
// (EngineOptions.Persist / ShardedEngineOptions.Persist): every published
// generation is atomically republished as a memory-mapped snapshot file and
// served from its trusted zero-copy remapping.
type EnginePersistOptions = engine.PersistOptions

// StaticEngine serves queries from one fixed frozen M*(k) snapshot —
// typically a Snapshot mapped straight off disk — through the same
// interface as the adaptive engines, with no write side at all.
type StaticEngine = engine.Static

// NewStaticEngine builds a read-only serving engine over a frozen view;
// parallelism bounds the validation worker pool (<= 0 means GOMAXPROCS).
func NewStaticEngine(fm *FrozenMStar, parallelism int) (*StaticEngine, error) {
	return engine.NewStatic(fm, parallelism)
}

// AutoTuneConfig configures the engine's online workload tracker and
// adaptive tuner (EngineOptions.AutoTune): a bounded space-saving sketch of
// the hottest canonical path expressions drives epoch-based promotion
// (Support) of sustained-hot FUPs and retirement (Retire) of cooled-off
// ones, with hysteresis and cooldowns damping oscillation.
type AutoTuneConfig = adapt.Config

// AutoTuneSnapshot is the tuner's observable state, carried by
// EngineStats.AutoTune: epoch and action counters, the tracker's current
// hot set, and the last executed tuning plan.
type AutoTuneSnapshot = adapt.Snapshot

// AutoTunePlan is one epoch's tuning decisions with reasons, for
// observability (EngineStats.AutoTune.LastPlan).
type AutoTunePlan = adapt.Plan

// DefaultAutoTuneConfig returns the documented default tuning parameters.
func DefaultAutoTuneConfig() AutoTuneConfig { return adapt.DefaultConfig() }
