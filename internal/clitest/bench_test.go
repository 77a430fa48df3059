package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchSmoke builds the end-to-end benchmark (bench/, its own module)
// against this checkout and runs every workload at smoke scale, so a root
// API change that breaks the benchmark, or a workload that answers wrongly
// or fails an operation, fails here rather than only in the benchmark's own
// CI job.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec smoke tests skipped in -short mode")
	}
	root := moduleRoot()
	exe := filepath.Join(t.TempDir(), "mrxbench")
	build := exec.Command("go", "build", "-C", "bench", "-o", exe, ".")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build bench: %v\n%s", err, out)
	}

	// Run from the root so the harness finds BENCHMARK.json; -out keeps its
	// files out of the checkout.
	cmd := exec.Command(exe, "-smoke", "-out", t.TempDir())
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench -smoke: %v\n%s%s", err, out, stderr.Bytes())
	}

	// Each workload prints one result line: {"correct":…,"attempted":…,…}.
	var results int
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"correct":`)) {
			continue
		}
		results++
		var res struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
		}
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("result line %d: %v\n%s", results, err, line)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("result line %d: correct=%v attempted=%d failed=%d",
				results, res.Correct, res.Attempted, res.Failed)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// One per BENCHMARK.json workload: hot_fup, cold_validate,
	// sharded_scatter and drift_refine.
	if results != 4 {
		t.Errorf("%d result lines, want 4:\n%s", results, out)
	}
}
