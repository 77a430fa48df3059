package main

import (
	"encoding/json"
	"io"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at smoke scale, end to end and traced, and
// checks the output against BENCHMARK.json: exactly its workloads and
// metrics, with its units, no failed operation, and — the point of whole
// rounds — costs that do not depend on the seed.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(bf.Workloads), len(specs))
	}
	checkTable := func(kind string, listed []boundedMetric, emitted []metric, bounded bool) {
		if len(listed) != len(emitted) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the binary emits %d", len(listed), kind, len(emitted))
			return
		}
		for i, m := range listed {
			if m.Name != emitted[i].name || m.Unit != emitted[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the binary emits %s [%s]", kind, i, m.Name, m.Unit, emitted[i].name, emitted[i].unit)
			}
			if !name.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("%s metric %q [%q]: bad name or missing unit", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	checkTable("end-to-end", bf.EndToEnd, endToEnd, true)
	checkTable("per-layer", bf.PerLayer, perLayer, false)

	for i, full := range specs {
		if bf.Workloads[i].Name != full.name || !name.MatchString(full.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the binary runs %q", i, bf.Workloads[i].Name, full.name)
		}
		sp := smoke(full)
		cfg := runConfig{seed: 1, seconds: 0.2, smoke: true, outDir: t.TempDir(), log: io.Discard}
		first, err := runEndToEnd(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		checkResult(t, sp.name, first, endToEnd)
		traced, err := runTraced(sp, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		checkResult(t, sp.name+" traced", traced, perLayer)
		if sp.drift {
			continue // its cost depends on when each publish lands
		}
		cfg.seed = 2
		second, err := runEndToEnd(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for _, m := range []string{"cost_per_query", "snapshot_bytes_per_node"} {
			if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
				t.Errorf("%s: %s is %v at seed 1 and %v at seed 2", sp.name, m, a, b)
			}
		}
	}
}

func checkResult(t *testing.T, what string, res result, want []metric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v, %d of %d operations failed", what, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("%s: metric %s [%s] missing or with unit %q", what, m.name, m.unit, v.Unit)
		}
	}
	// The result line has exactly the contract's four keys.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("%s: result line lacks %q", what, k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("%s: result line has %d keys, want 4", what, len(keys))
	}
}
