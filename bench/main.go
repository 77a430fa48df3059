// Command bench is the repository's one serving benchmark: four seeded
// workloads, each driven through setup → warm-up → measure → refine →
// restart against the server wired exactly as cmd/mrserve wires it, every
// answer checked against query.DataIndex.Eval, every metric printed by name
// with its unit. See README.md in this directory.
//
// Usage (from the repository root; run.sh builds and runs this package):
//
//	bash bench/run.sh                                  # all workloads, end to end
//	bash bench/run.sh --workload hot_fup --seed 3 --seconds 15 --trace 0
//	bash bench/run.sh --workload hot_fup --trace 1     # per-layer metrics
//	bash bench/run.sh -smoke                           # tiny, seconds in total
//	bash bench/run.sh -selfcheck -runs 5               # two sets of runs, compared
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: one of BENCHMARK.json's names, or all")
	seed := flag.Int64("seed", 1, "orders the request stream; the same seed gives the same requests")
	seconds := flag.Float64("seconds", 15, "length of the measure phase (whole rounds until this has elapsed)")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead")
	smokeRun := flag.Bool("smoke", false, "tiny scale and counts: checks that the harness works, measures nothing")
	outDir := flag.String("out", "bench/out", "directory for result and trace files and temporary snapshots")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "metric bounds for -compare and -selfcheck")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of -runs runs per workload and compare them")
	runs := flag.Int("runs", 5, "runs per set for -selfcheck")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		exitOn(compareFiles(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1)))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *selfcheck {
		exitOn(runSelfcheck(os.Stdout, *benchFile, *outDir, *workload, *runs, *seconds))
	}

	// Two cores' worth of scheduler whatever the host has, so that engine
	// worker counts — and with them the cost counts — do not depend on it.
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smokeRun, outDir: *outDir, log: os.Stdout}
	if cfg.smoke && !flagSet("seconds") {
		cfg.seconds = 0.2
	}
	var todo []*spec
	if *workload == "all" {
		todo = specs
	} else if sp := specByName(*workload); sp != nil {
		todo = []*spec{sp}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	out, err := os.Create(filepath.Join(*outDir, "result.jsonl"))
	if err != nil {
		fatal(err)
	}
	defer out.Close()
	correct := true
	for _, sp := range todo {
		if cfg.smoke {
			sp = smoke(sp)
		}
		var res result
		if *trace != 0 {
			res, err = runTraced(sp, cfg)
		} else {
			res, err = runEndToEnd(sp, cfg)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		printMetrics(cfg.log, sp.name, res)
		line, err := json.Marshal(record{Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: *trace != 0, result: res})
		if err != nil {
			fatal(err)
		}
		if _, err := out.Write(append(line, '\n')); err != nil {
			fatal(err)
		}
		// The contract's result line; with several workloads each gets one.
		line, err = json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		correct = correct && res.Correct
	}
	if err := out.Close(); err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func printMetrics(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "%-16s %-28s %14.4f %s\n", workload, n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%-16s attempted %d, failed %d\n", workload, res.Attempted, res.Failed)
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// exitOn ends a comparison: 0 when the sets agree, 1 when they do not.
func exitOn(agree bool, err error) {
	if err != nil {
		fatal(err)
	}
	if !agree {
		os.Exit(1)
	}
	os.Exit(0)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
