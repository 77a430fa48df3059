package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readRecords reads a result file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// the numbers here are the ones the driver sees. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one result set's summary of one metric on one workload.
type side struct {
	n          int
	q1, q2, q3 float64
}

func (s side) spread() float64 { return (s.q3 - s.q1) / s.q2 }

func summarize(xs []float64) side {
	if len(xs) == 1 {
		return side{1, xs[0], xs[0], xs[0]}
	}
	q1, q2, q3 := quartiles(xs)
	return side{len(xs), q1, q2, q3}
}

// collect groups the end-to-end metric values of a result set by
// workload and metric, leaving out traced runs and incorrect ones.
func collect(recs []record) (map[string]map[string][]float64, int) {
	out := map[string]map[string][]float64{}
	incorrect := 0
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if !r.Correct {
			incorrect++
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, incorrect
}

// compareSets prints, per metric × workload, each set's median and
// quartiles and b's median relative to a's in the direction that counts as
// worse, against the metric's bound. A pair is "unresolved" when either
// side's own quartile spread exceeds the bound and "WORSE" when b's median
// is worse than a's by more than the bound. With gateSpread (the
// self-check) a spread beyond the bound also counts as a disagreement,
// setup_s excepted as in the driver. It returns the number of
// disagreements.
func compareSets(w io.Writer, bf *benchmarkFile, a, b []record, gateSpread bool) int {
	as, abad := collect(a)
	bs, bbad := collect(b)
	bad := 0
	if abad+bbad > 0 {
		fmt.Fprintf(w, "%d runs with failed operations (a: %d, b: %d)\n", abad+bbad, abad, bbad)
		bad += abad + bbad
	}
	fmt.Fprintf(w, "%-16s %-24s %5s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "median a", "iqr a", "median b", "iqr b", "worse", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			av, bv := as[wl.Name][m.Name], bs[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-16s %-24s missing from a result set\n", wl.Name, m.Name)
				bad++
				continue
			}
			sa, sb := summarize(av), summarize(bv)
			worse := (sb.q2 - sa.q2) / sa.q2
			if m.Better == "higher" {
				worse = -worse
			}
			spreadOver := sa.spread() > m.Bound || sb.spread() > m.Bound
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "WORSE"
				bad++
			case spreadOver && gateSpread && m.Name != "setup_s":
				verdict = "unresolved: spread beyond the bound"
				bad++
			case spreadOver:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-24s %2d/%-2d %12.4f %7.2f%% %12.4f %7.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, sa.n, sb.n, sa.q2, 100*sa.spread(), sb.q2, 100*sb.spread(), 100*worse, 100*m.Bound, verdict)
		}
	}
	return bad
}

// compareFiles is -compare: it reports whether the two result files agree.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	return compareSets(w, bf, a, b, false) == 0, nil
}

// runSelfcheck is -selfcheck: two sets of runs of this same binary, one
// process per run and a new seed each, written to <out>/selfcheck-a.jsonl
// and -b.jsonl and compared as the driver compares them. It reports
// whether the two sets agree.
func runSelfcheck(w io.Writer, benchPath, outDir, workload string, runs int, seconds float64) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	only := *bf
	only.Workloads = nil
	for _, wl := range bf.Workloads {
		if workload == "all" || workload == wl.Name {
			only.Workloads = append(only.Workloads, wl)
		}
	}
	sets := make([][]record, 2)
	seed := int64(0)
	for s := range sets {
		var file bytes.Buffer
		for run := 0; run < runs; run++ {
			seed++
			for _, wl := range only.Workloads {
				rec, err := childRun(self, outDir, wl.Name, seed, seconds)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				fmt.Fprintf(w, "set %c run %d/%d %-16s seed %d: correct=%v\n", 'a'+s, run+1, runs, wl.Name, seed, rec.Correct)
				line, err := json.Marshal(rec)
				if err != nil {
					return false, err
				}
				file.Write(append(line, '\n'))
				sets[s] = append(sets[s], rec)
			}
		}
		path := filepath.Join(outDir, fmt.Sprintf("selfcheck-%c.jsonl", 'a'+s))
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			return false, err
		}
	}
	return compareSets(w, &only, sets[0], sets[1], true) == 0, nil
}

// childRun runs one workload in a process of its own and parses the result
// line it prints last.
func childRun(self, outDir, workload string, seed int64, seconds float64) (record, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-out", filepath.Join(outDir, "selfcheck"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	rec := record{Workload: workload, Seed: seed, Seconds: seconds}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	if jerr := json.Unmarshal(lines[len(lines)-1], &rec.result); jerr != nil {
		if err != nil {
			return rec, err
		}
		return rec, fmt.Errorf("no result line: %w", jerr)
	}
	return rec, nil
}
