// Package engine serves structural-index queries to many goroutines
// concurrently while the index keeps adapting to the workload.
//
// The concurrency model is a single writer-owned mutable index behind
// generation-numbered immutable snapshots, and it lives in one place:
// shard.State. Readers never block: a query loads a shard's current
// snapshot through an atomic pointer and evaluates against its frozen
// M*(k)-index — a CSR-flattened core.FrozenMStar that contains no maps at
// all — lock-free and with deterministic traversal order. Writers serialize
// on the shard's mutex: Support applies REFINE* in place to the mutable
// index only the writer ever touches, re-freezes only the components whose
// version moved, and publishes with a single atomic pointer swap that bumps
// the generation. A reader that loaded the old snapshot mid-query finishes
// against arrays no one will ever mutate again; the next query observes the
// refined generation. This realizes the paper's operational loop (Figure 5:
// serve, extract FUPs, refine, repeat) under concurrent load.
//
// Sharded runs one State per shard of the data graph. Engine is a Sharded
// with exactly one shard that owns the whole graph, so it shares every
// method, counter and publish path with it; its one shard reads the data
// graph in place and its queries skip routing and id mapping.
//
// Inside a single query, validation of under-refined answers — the dominant
// cost term of the paper's metric — fans out across a bounded worker pool
// (Options.Parallelism, default GOMAXPROCS); see query.ValidateOpts.
package engine

import (
	"errors"
	"fmt"

	"mrx/internal/adapt"
	"mrx/internal/core"
	"mrx/internal/graph"
)

// Options configures an Engine.
type Options struct {
	// MStar configures the adaptive M*(k)-index the engine serves from
	// (resolution cap, query strategy, per-index validation parallelism).
	// A zero MStar.Parallelism inherits the engine's Parallelism.
	MStar core.MStarOptions

	// Parallelism bounds the validation worker pool per query and, through
	// MStar, the per-component freeze fan-out of each publish. Values <= 0
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
	// published generation is atomically written to Persist.Dir/mstar.mrx
	// as an mmapstore snapshot and queries are served from the trusted
	// zero-copy remapping of that file. New fails if the initial publish
	// fails; a republish failure at runtime degrades that generation to heap
	// serving and bumps StatsSnapshot.PersistErrors.
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
// strategies.
func validStrategy(s core.Strategy) bool {
	for _, n := range strategyNames {
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

// Engine serves queries over a data graph through one adaptive M*(k)-index
// that covers the whole graph: a Sharded engine with a single shard. Every
// serving and writing method is Sharded's; Engine adds the accessors that
// name its one snapshot. The zero Engine is not usable; construct with New.
type Engine struct{ *Sharded }

// New creates an engine serving queries over g through an adaptive
// M*(k)-index initialized at component I0. It fails with a wrapped error
// when opts is plainly invalid (see Options.Validate); zero-valued fields
// select the documented defaults.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	en, err := newSharded(g, ShardedOptions{
		Shards:      1,
		MStar:       opts.MStar,
		Parallelism: opts.Parallelism,
		AutoTune:    opts.AutoTune,
		Persist:     opts.Persist,
	}, persistFile)
	if err != nil {
		return nil, err
	}
	return &Engine{en}, nil
}

// Snapshot returns a deep copy of the writer's mutable M*(k)-index, taken
// under the write lock: the index the current generation was frozen from.
// The copy is the caller's, so it may be inspected (sizes, components,
// validation) without coordination while the engine keeps refining. Each
// call copies every component; queries read FrozenSnapshot's view instead.
func (en *Engine) Snapshot() *core.MStar {
	ms, _ := en.shards[0].CopyIndex()
	return ms
}

// FrozenSnapshot returns the heap-frozen M*(k)-index view of the current
// generation. It is immutable by construction. Under Options.Persist this
// is the canonical writer-side view the on-disk snapshot was encoded from,
// not the mapped view queries read — use ServingSnapshot for that; the two
// answer identically (the difftest suite and the mmapstore round-trip tests
// pin this down byte for byte).
func (en *Engine) FrozenSnapshot() *core.FrozenMStar { return en.shards[0].Snapshot().FZ }

// ServingSnapshot returns the frozen view queries are actually evaluated
// against: the disk-backed zero-copy mapping when Options.Persist is active
// (and the generation's republish succeeded), the heap view otherwise.
func (en *Engine) ServingSnapshot() *core.FrozenMStar { return en.shards[0].Snapshot().Serving() }
