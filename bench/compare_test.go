package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in CPython 3.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1.5, 1.5, 1.5, 1.5, 9}, [3]float64{1.5, 1.5, 5.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

// canned writes a result file with one workload and the given values of a
// lower-is-better and a higher-is-better metric.
func canned(t *testing.T, dir, name string, latency, qps []float64) string {
	t.Helper()
	var buf bytes.Buffer
	for i := range latency {
		rec := record{Workload: "w", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]value{
			"latency_us": {latency[i], "us"},
			"qps":        {qps[i], "1/s"},
		}}}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{
		"workloads": [{"name": "w", "why": "test"}],
		"end_to_end": [
			{"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
			{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}
		]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := canned(t, dir, "base", []float64{100, 101, 99, 100, 102}, []float64{1000, 1010, 990, 1005, 995})
	for _, tc := range []struct {
		name         string
		latency, qps []float64
		agree        bool
		want         []string
	}{
		{"same", []float64{101, 100, 100, 99, 102}, []float64{1001, 1000, 990, 1010, 1000}, true, []string{"ok"}},
		{"slower within the bound", []float64{105, 106, 104, 105, 107}, []float64{960, 950, 955, 965, 970}, true, []string{"ok"}},
		{"latency worse", []float64{120, 121, 119, 120, 122}, []float64{1000, 1010, 990, 1005, 995}, false, []string{"WORSE"}},
		{"throughput worse", []float64{100, 101, 99, 100, 102}, []float64{800, 810, 790, 805, 795}, false, []string{"WORSE"}},
		{"faster", []float64{80, 81, 79, 80, 82}, []float64{1300, 1310, 1290, 1305, 1295}, true, []string{"ok"}},
		{"noisy", []float64{70, 130, 100, 85, 115}, []float64{1000, 1010, 990, 1005, 995}, true, []string{"unresolved"}},
	} {
		other := canned(t, dir, "other", tc.latency, tc.qps)
		var out bytes.Buffer
		if got, err := compareFiles(&out, bench, base, other); err != nil || got != tc.agree {
			t.Errorf("%s: agree=%v (%v), want %v\n%s", tc.name, got, err, tc.agree, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, w, out.String())
			}
		}
	}

	// A run with failed operations makes the sets disagree whatever it measured.
	bf, err := readBenchmarkFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	a, err := readRecords(base)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]record(nil), a...)
	b[0].Correct = false
	var out bytes.Buffer
	if compareSets(&out, bf, a, b, false) == 0 {
		t.Errorf("an incorrect run did not count as a disagreement\n%s", out.String())
	}
	// The self-check also gates on spread.
	noisy, err := readRecords(canned(t, dir, "noisy", []float64{70, 130, 100, 85, 115}, []float64{1000, 1010, 990, 1005, 995}))
	if err != nil {
		t.Fatal(err)
	}
	if compareSets(&out, bf, a, noisy, true) == 0 {
		t.Error("the self-check accepted a spread beyond the bound")
	}
}
