package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mrx/internal/engine"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run in a result file (-out), the input of -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
}

// runConfig is what the command line decides about one run.
type runConfig struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
	log     io.Writer // human-readable progress and metric lines
}

// reps returns n, or 1 in a smoke run.
func (c runConfig) reps(n int) int {
	if c.smoke {
		return 1
	}
	return n
}

// tally accumulates checked operations over a run's phases.
type tally struct {
	attempted, failed int64
	log               io.Writer
}

func (t *tally) add(phase string, attempted, failed int64, notes ...string) {
	t.attempted += attempted
	t.failed += failed
	fmt.Fprintf(t.log, "  %-10s %d checked, %d failed\n", phase, attempted, failed)
	for _, n := range notes {
		fmt.Fprintf(t.log, "    failed: %s\n", n)
	}
}

func (t *tally) result(metrics []metric, vals map[string]float64) (result, error) {
	res := result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]value, len(metrics)),
	}
	for _, m := range metrics {
		v, ok := vals[m.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	return res, nil
}

// runEndToEnd runs one workload through setup → warm-up → measure → refine
// → restart with tracing off and returns the end-to-end metrics.
func runEndToEnd(sp *spec, cfg runConfig) (result, error) {
	p, err := prepare(sp, cfg.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "%s: %s\n", sp.name, p.describe())
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	tl := &tally{log: cfg.log}
	vals := map[string]float64{}

	// Setup, several times over: one build is a fraction of a second, too
	// short to repeat within its bound, so the run reports the median.
	var sys *system
	var setups []time.Duration
	for i := 0; i < cfg.reps(setupReps); i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		var bt buildTimes
		if sys, bt, err = buildSystem(p, tmp); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, bt.total())
	}
	defer sys.close()
	vals["setup_s"] = medianDur(setups).Seconds()
	if sh, ok := sys.be.(*engine.Sharded); ok {
		fmt.Fprintf(cfg.log, "  %d shards (asked for %d)\n", sh.NumShards(), shardsAsked)
	}

	warm := sys.runPhase(p, p.warmup())
	tl.add("warm-up", warm.attempted, warm.failed)
	a, f, notes := sys.fullCheck(p)
	tl.add("id-sets", a, f, notes...)

	runtime.GC()
	m := sys.runPhase(p, phaseOpts{dur: time.Duration(cfg.seconds * float64(time.Second))})
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	tl.add("measure", m.attempted, m.failed)
	ok := m.attempted - m.failed
	if ok == 0 {
		return result{}, fmt.Errorf("%s: no request succeeded in the measure phase", sp.name)
	}
	fmt.Fprintf(cfg.log, "  measured %d requests (%d rounds, %d windows) in %.2fs\n",
		m.attempted, m.attempted/int64(p.seq.round), len(m.windows), m.wall.Seconds())
	vals["throughput_qps"] = m.overWindows(func(w *window) float64 { return float64(w.ok) / w.wall.Seconds() })
	vals["latency_p50_us"] = m.overWindows(func(w *window) float64 { return w.lat.quantile(0.50) / 1e3 })
	vals["latency_p95_us"] = m.overWindows(func(w *window) float64 { return w.lat.quantile(0.95) / 1e3 })
	vals["cost_per_query"] = float64(m.cost) / float64(ok)
	vals["allocs_per_query"] = float64(m.mallocs) / float64(m.attempted)
	vals["heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	a, f, notes = sys.fullCheck(p)
	tl.add("id-sets", a, f, notes...)

	var refines []time.Duration
	if sp.drift {
		for _, st := range m.steps {
			if st.changed > 0 {
				refines = append(refines, st.dur)
			}
		}
		fmt.Fprintf(cfg.log, "  %d tuner steps, %d changed the index\n", len(m.steps), len(refines))
	} else {
		refines = refinePhase(p, sys.be)
	}
	if len(refines) == 0 {
		return result{}, fmt.Errorf("%s: no refinement changed the index", sp.name)
	}
	vals["refine_ms"] = midmeanMS(refines)

	restarts, snapBytes, ra, rf, err := restartPhase(p, sys, tmp, cfg.reps(restartReps))
	if err != nil {
		return result{}, fmt.Errorf("restart: %w", err)
	}
	tl.add("restart", ra, rf)
	vals["restart_ms"] = midmeanMS(restarts)
	vals["snapshot_bytes_per_node"] = float64(snapBytes) / float64(p.nodes)

	return tl.result(endToEnd, vals)
}
