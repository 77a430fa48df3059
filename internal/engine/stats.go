package engine

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"mrx/internal/adapt"
	"mrx/internal/core"
	"mrx/internal/latstat"
)

// numStrategies is the number of histogram slots; keep in sync with
// strategyNames.
const numStrategies = 6

// strategyNames fixes the histogram slots; unknown strategy names fold into
// the last slot.
var strategyNames = [numStrategies]core.Strategy{
	core.StrategyTopDown,
	core.StrategyNaive,
	core.StrategySubpath,
	core.StrategyBottomUp,
	core.StrategyHybrid,
	core.StrategyAuto,
}

func strategySlot(s core.Strategy) int {
	for i, n := range strategyNames {
		if n == s {
			return i
		}
	}
	return len(strategyNames) - 1
}

// stats is the engine's internal counter block; all fields are atomics so
// every serving goroutine can update them without coordination. The latency
// histograms are latstat.Histogram — the same lock-free power-of-two
// machinery the serving layer's admission controller windows over.
type stats struct {
	queries        atomic.Uint64
	preciseQueries atomic.Uint64
	indexVisits    atomic.Uint64
	validations    atomic.Uint64
	canceled       atomic.Uint64

	refinements    atomic.Uint64
	refinesSkipped atomic.Uint64
	retirements    atomic.Uint64
	retiresSkipped atomic.Uint64
	publishes      atomic.Uint64

	latency [numStrategies]latstat.Histogram
}

func (s *stats) recordQuery(strategy core.Strategy, indexNodes, dataNodes int, precise bool, d time.Duration) {
	s.queries.Add(1)
	if precise {
		s.preciseQueries.Add(1)
	}
	s.indexVisits.Add(uint64(indexNodes))
	s.validations.Add(uint64(dataNodes))
	s.latency[strategySlot(strategy)].Record(d)
}

// LatencySummary condenses one strategy's latency histogram.
type LatencySummary = latstat.Summary

// StatsSnapshot is a point-in-time copy of the engine counters, safe to
// read, print and compare after the fact.
type StatsSnapshot struct {
	// Generation is the number of index snapshots published since New; it
	// increments once per applied refinement.
	Generation uint64
	// Queries counts Query/QueryCtx/CountCtx calls served.
	Queries uint64
	// PreciseQueries counts queries answered without any validation.
	PreciseQueries uint64
	// IndexNodesVisited and DataNodesValidated accumulate the paper's
	// two-part cost metric over all queries served.
	IndexNodesVisited  uint64
	DataNodesValidated uint64
	// Canceled counts queries aborted by context cancellation.
	Canceled uint64
	// Refinements counts applied (published) refinements; RefinesSkipped
	// counts Support calls that were no-ops (already precise or no change).
	Refinements    uint64
	RefinesSkipped uint64
	// Retirements counts applied (published) FUP retirements;
	// RetiresSkipped counts Retire calls for unregistered expressions.
	Retirements    uint64
	RetiresSkipped uint64
	// SnapshotPublishes counts atomic snapshot swaps (refinements plus
	// retirements; tracked separately so future batched publication stays
	// observable).
	SnapshotPublishes uint64
	// PersistErrors counts generations whose on-disk republish failed under
	// Options.Persist, summed over the shards; each such generation served
	// from the heap instead. Zero whenever persistence is disabled.
	PersistErrors uint64
	// Latency summarizes per-strategy query latency.
	Latency map[core.Strategy]LatencySummary
	// AutoTune carries the tuner state when Options.AutoTune is enabled,
	// nil otherwise.
	AutoTune *adapt.Snapshot
	// Shards carries one entry per shard (Generation is the sum of the
	// per-shard generations): exactly one for the monolithic Engine, nil for
	// Static.
	Shards []ShardStats
}

// ShardStats is the per-shard slice of a Sharded engine's StatsSnapshot.
type ShardStats struct {
	// Shard is the shard index, 0..NumShards-1; shard 0 owns the root.
	Shard int
	// Nodes and Components describe the partition: data nodes owned and
	// weak components packed into the shard.
	Nodes      int
	Components int
	// HasRoot marks the shard owning the global root (rooted expressions
	// route only here).
	HasRoot bool
	// Generation counts snapshots this shard published since construction.
	Generation uint64
	// PersistErrors counts this shard's failed on-disk republishes (the
	// shard served those generations from the heap); always zero without
	// ShardedOptions.Persist.
	PersistErrors uint64
	// Queries counts shard-local evaluations; a scattered query bumps every
	// shard it touches, so the sum over shards can exceed client queries.
	Queries uint64
	// Freezes counts freeze runs (initial + refinements + retirements);
	// LastFreeze and TotalFreeze are their wall-clock.
	Freezes     uint64
	LastFreeze  time.Duration
	TotalFreeze time.Duration
}

func (s *stats) snapshot(generation uint64) StatsSnapshot {
	out := StatsSnapshot{
		Generation:         generation,
		Queries:            s.queries.Load(),
		PreciseQueries:     s.preciseQueries.Load(),
		IndexNodesVisited:  s.indexVisits.Load(),
		DataNodesValidated: s.validations.Load(),
		Canceled:           s.canceled.Load(),
		Refinements:        s.refinements.Load(),
		RefinesSkipped:     s.refinesSkipped.Load(),
		Retirements:        s.retirements.Load(),
		RetiresSkipped:     s.retiresSkipped.Load(),
		SnapshotPublishes:  s.publishes.Load(),
		Latency:            make(map[core.Strategy]LatencySummary),
	}
	for i := range s.latency {
		if sum := s.latency[i].Summary(); sum.Count > 0 {
			out.Latency[strategyNames[i]] = sum
		}
	}
	return out
}

// WriteTo renders the snapshot as an aligned text block (cmd/mrquery -stats
// uses it).
func (s StatsSnapshot) WriteTo(w io.Writer) (int64, error) {
	var n int64
	pr := func(format string, args ...any) error {
		m, err := fmt.Fprintf(w, format, args...)
		n += int64(m)
		return err
	}
	if err := pr("engine stats (generation %d)\n", s.Generation); err != nil {
		return n, err
	}
	if err := pr("  queries          %10d  (precise %d, canceled %d)\n",
		s.Queries, s.PreciseQueries, s.Canceled); err != nil {
		return n, err
	}
	if err := pr("  cost             %10d index nodes + %d data nodes validated\n",
		s.IndexNodesVisited, s.DataNodesValidated); err != nil {
		return n, err
	}
	if err := pr("  refinements      %10d applied, %d skipped, %d snapshots published\n",
		s.Refinements, s.RefinesSkipped, s.SnapshotPublishes); err != nil {
		return n, err
	}
	if s.Retirements > 0 || s.RetiresSkipped > 0 {
		if err := pr("  retirements      %10d applied, %d skipped\n",
			s.Retirements, s.RetiresSkipped); err != nil {
			return n, err
		}
	}
	if s.PersistErrors > 0 {
		if err := pr("  persist errors   %10d generations served from heap instead of disk\n",
			s.PersistErrors); err != nil {
			return n, err
		}
	}
	names := make([]string, 0, len(s.Latency))
	for name := range s.Latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := s.Latency[name]
		if err := pr("  latency %-9s %10d queries  mean %-9v p50 %-9v p90 %-9v p99 %-9v p999 %-9v max %v\n",
			name, l.Count, l.Mean, l.P50, l.P90, l.P99, l.P999, l.Max); err != nil {
			return n, err
		}
	}
	for _, sh := range s.Shards {
		root := ""
		if sh.HasRoot {
			root = " root"
		}
		if err := pr("  shard %-3d gen %-4d %7d nodes %4d comps%s  %d queries, %d freezes (last %v, total %v)\n",
			sh.Shard, sh.Generation, sh.Nodes, sh.Components, root,
			sh.Queries, sh.Freezes, sh.LastFreeze, sh.TotalFreeze); err != nil {
			return n, err
		}
	}
	if at := s.AutoTune; at != nil {
		if err := pr("  autotune         %10d epochs, %d promotions, %d retires, %d tracked\n",
			at.Epochs, at.Promotions, at.Retires, len(at.Top)); err != nil {
			return n, err
		}
		for i, st := range at.Top {
			if i >= 5 {
				if err := pr("    ... and %d more tracked expressions\n", len(at.Top)-i); err != nil {
					return n, err
				}
				break
			}
			if err := pr("    hot %-40s score %-6d err %-4d validated %d\n",
				st.Key, st.Score, st.Err, st.Validated); err != nil {
				return n, err
			}
		}
		for _, d := range at.LastPlan.Decisions {
			if err := pr("    plan[%d] %-8s %-40s %s (applied=%v)\n",
				at.LastPlan.Epoch, d.Action, d.Key, d.Reason, d.Changed); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// String renders the snapshot as text.
func (s StatsSnapshot) String() string {
	var b writerBuffer
	s.WriteTo(&b)
	return string(b)
}

type writerBuffer []byte

func (b *writerBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
