package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"mrx/internal/adapt"
	"mrx/internal/engine"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// DriftOptions configures one drifting-workload differential case: an
// auto-tuned engine serves a workload whose hot set rotates between phases,
// and every answer along the way is cross-checked against the reference
// evaluator while the tuner promotes and retires FUPs underneath.
type DriftOptions struct {
	// Seed drives the graph (Seed), workload (Seed+1), and background
	// traffic schedule (Seed+2).
	Seed     int64
	Graph    gtest.Options
	Workload gtest.WorkloadOptions
	// Phases is how many times the hot set rotates (default 3); HotSize is
	// how many supportable expressions are hot per phase (default 2).
	Phases  int
	HotSize int
	// EpochsPerPhase is the tuner-epoch budget within which each phase's hot
	// set must converge to precise answers (default 6).
	EpochsPerPhase int
	// QueriesPerEpoch is how many times each hot expression is served per
	// epoch (default 4); one background query from the full workload rides
	// along per hot burst so the tracker sees realistic noise.
	QueriesPerEpoch int
	// CheckBisim extends the post-step invariant checks with the expensive
	// P1 verification; keep graphs small when set.
	CheckBisim bool
}

func (o *DriftOptions) defaults() {
	if o.Phases <= 0 {
		o.Phases = 3
	}
	if o.HotSize <= 0 {
		o.HotSize = 2
	}
	if o.EpochsPerPhase <= 0 {
		o.EpochsPerPhase = 6
	}
	if o.QueriesPerEpoch <= 0 {
		o.QueriesPerEpoch = 4
	}
}

// driftParallelism is the drift engine's validation worker count.
const driftParallelism = 2

// DriftReport summarizes a drift run for convergence assertions.
type DriftReport struct {
	// ConvergedAt[p] is the epoch (within phase p, 0-based) at which every
	// hot supportable expression of that phase was answered precisely.
	ConvergedAt []int
	// Promotions and Retirements are the engine counters at the end.
	Promotions, Retirements uint64
	// Generations is the number of snapshots published over the run.
	Generations uint64
}

// RandomDriftCase derives a randomized DriftOptions from a seed, sized for
// test-time cross-checking.
func RandomDriftCase(seed int64, minNodes, maxNodes int, checkBisim bool) DriftOptions {
	base := RandomCase(seed, minNodes, maxNodes, checkBisim)
	w := base.Workload
	w.Size = 8 + int(seed%3)
	return DriftOptions{
		Seed:       seed,
		Graph:      base.Graph,
		Workload:   w,
		CheckBisim: checkBisim,
	}
}

// RunDriftCase replays a drifting workload through an auto-tuned engine with
// a manually stepped tuner, failing tb on any divergence from SlowEval, any
// violated structural invariant after a tuner step, any mutation of a
// published snapshot, or a phase that does not converge within its epoch
// budget. The tuner's epoch stepping is fully deterministic (Interval 0).
func RunDriftCase(tb testing.TB, o DriftOptions) DriftReport {
	tb.Helper()
	o.defaults()
	g := gtest.New(o.Seed, o.Graph)
	exprs := parseAll(tb, gtest.RandomWorkload(o.Seed+1, g, o.Workload))
	fups := Supportable(exprs)
	if len(fups) == 0 {
		tb.Fatalf("seed %d: workload has no supportable expressions", o.Seed)
	}

	// Aggressive-but-damped tuning so phases convert and retire within a
	// handful of epochs; Interval 0 keeps stepping in this goroutine.
	en, err := engine.New(g, engine.Options{Parallelism: driftParallelism, AutoTune: &adapt.Config{
		TopK:         16,
		HotThreshold: 3,
		PromoteAfter: 2,
		DemoteAfter:  2,
		Cooldown:     1,
	}})
	if err != nil {
		tb.Fatalf("seed %d: engine.New: %v", o.Seed, err)
	}
	defer en.Close()

	oracle := make(map[string][]graph.NodeID)
	truth := func(e *pathexpr.Expr) []graph.NodeID {
		key := pathexpr.Canonical(e)
		if _, ok := oracle[key]; !ok {
			oracle[key] = SlowEval(g, e)
		}
		return oracle[key]
	}
	serve := func(e *pathexpr.Expr) bool {
		res := en.Query(e)
		if err := sortedUnique(res.Answer); err != nil {
			tb.Fatalf("seed %d: drift: %s: %v", o.Seed, e, err)
		}
		if !equalIDs(res.Answer, truth(e)) {
			tb.Fatalf("seed %d: drift: %s: answer %v, reference %v",
				o.Seed, e, res.Answer, truth(e))
		}
		// The count-only evaluation of the snapshot the tuner published.
		// Engine.CountCtx would be the same call, but it would feed the
		// tuner a second observation and change the workload under test.
		cnt, _ := en.ServingSnapshot().QueryOpts(e, query.ValidateOpts{Workers: driftParallelism, CountOnly: true})
		if err := sameCount(cnt, res); err != nil {
			tb.Fatalf("seed %d: drift: %s: count path: %v", o.Seed, e, err)
		}
		return res.Precise
	}

	// Track every published generation: its frozen views are immutable by
	// contract, so their fingerprints must never change — including across
	// the rebuild-from-scratch path Retire takes.
	st := en.ShardState(0)
	var history published
	seen := map[uint64]bool{}
	fingerprintCurrent := func() {
		gen := en.Generation()
		if !seen[gen] {
			seen[gen] = true
			history.record(fmt.Sprintf("snapshot generation %d", gen), st.Snapshot())
		}
	}
	fingerprintCurrent()

	rng := rand.New(rand.NewSource(o.Seed + 2))
	report := DriftReport{ConvergedAt: make([]int, o.Phases)}
	lastRetires := uint64(0)

	for phase := 0; phase < o.Phases; phase++ {
		hot := make([]*pathexpr.Expr, 0, o.HotSize)
		for i := 0; i < o.HotSize; i++ {
			hot = append(hot, fups[(phase*o.HotSize+i)%len(fups)])
		}
		report.ConvergedAt[phase] = -1
		for epoch := 0; epoch < o.EpochsPerPhase; epoch++ {
			for q := 0; q < o.QueriesPerEpoch; q++ {
				for _, e := range hot {
					serve(e)
				}
				// Background noise from the full workload, wildcards and all.
				serve(exprs[rng.Intn(len(exprs))])
			}
			en.Tuner().Step()
			fingerprintCurrent()

			// Full invariant re-verification after every step that retired
			// (the rebuild path) — and cheaply after every step regardless.
			retires := en.Stats().Retirements
			checkBisim := o.CheckBisim && retires > lastRetires
			lastRetires = retires
			if err := checkWriter(st, checkBisim); err != nil {
				tb.Fatalf("seed %d: drift phase %d epoch %d: %v",
					o.Seed, phase, epoch, err)
			}

			if report.ConvergedAt[phase] < 0 {
				precise := true
				for _, e := range hot {
					if !serve(e) {
						precise = false
					}
				}
				if precise {
					report.ConvergedAt[phase] = epoch
				}
			}
		}
		if report.ConvergedAt[phase] < 0 {
			tb.Fatalf("seed %d: drift phase %d: hot set %v not precise within %d epochs (autotune: %+v)",
				o.Seed, phase, hot, o.EpochsPerPhase, en.Stats().AutoTune)
		}
	}

	// Published snapshots stayed immutable throughout.
	if err := history.check(); err != nil {
		tb.Fatalf("seed %d: drift: %v", o.Seed, err)
	}

	stats := en.Stats()
	report.Promotions = stats.AutoTune.Promotions
	report.Retirements = stats.Retirements
	report.Generations = stats.Generation
	return report
}

// RunDrift executes cfg.Cases randomized drifting-workload cases as parallel
// subtests and asserts overall tuner liveness: across all cases the tuner
// must both promote and (once hot sets rotate) retire.
func RunDrift(t *testing.T, cfg Config) {
	type outcome struct {
		promotions, retirements uint64
	}
	results := make([]outcome, cfg.Cases)
	t.Run("cases", func(t *testing.T) {
		for i := 0; i < cfg.Cases; i++ {
			i := i
			o := RandomDriftCase(cfg.Seed+int64(i), cfg.MinNodes, cfg.MaxNodes, cfg.CheckBisim)
			t.Run(fmt.Sprintf("drift%03d_%s", i, o.Graph.Shape), func(t *testing.T) {
				t.Parallel()
				rep := RunDriftCase(t, o)
				results[i] = outcome{rep.Promotions, rep.Retirements}
			})
		}
	})
	if t.Failed() {
		return
	}
	var promotions, retirements uint64
	for _, r := range results {
		promotions += r.promotions
		retirements += r.retirements
	}
	if promotions == 0 {
		t.Error("no drift case ever promoted a hot expression")
	}
	if retirements == 0 {
		t.Error("no drift case ever retired a cooled-off FUP")
	}
}
