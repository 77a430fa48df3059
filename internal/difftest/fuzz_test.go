package difftest

import (
	"testing"

	"mrx/internal/gtest"
)

// FuzzDifferential lets the fuzzer drive the case generator: the seed picks
// the base case and the knobs perturb graph shape and workload composition,
// steering toward corners the fixed-seed sweep in TestDifferentialAll
// samples thinly. Any divergence between a serving path and the reference
// evaluator, or any violated invariant after a refinement step, fails.
//
// Parameters are plain integers so corpus entries stay trivial to author
// and to read back when a failure reproduces. The committed corpus
// (testdata/fuzz/FuzzDifferential) names the cases it was picked for: the
// subpath-* entries make the frozen subpath strategy descend across two or
// more components, and across none.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(7), int64(5))      // tree shape, skewed labels
	f.Add(int64(42), int64(2))     // DAG shape
	f.Add(int64(1000), int64(127)) // everything biased at once
	f.Fuzz(func(t *testing.T, seed, knobs int64) {
		o := RandomCase(seed, 6, 30, true)
		// Small graphs and one query per expression keep each exec cheap;
		// the fuzzer's strength is breadth, not per-case depth.
		o.QueriesPerExpr = 1
		o.Workload.Size = 5
		switch knobs & 3 {
		case 1:
			o.Graph.Shape, o.Graph.RefProb = gtest.Tree, 0
		case 2:
			o.Graph.Shape = gtest.DAG
		}
		if knobs&4 != 0 {
			o.Graph.Skew = 2.5
		}
		if knobs&8 != 0 {
			o.Graph.Labels = 2 // heavy label collisions
		}
		if knobs&16 != 0 {
			o.Workload.Adversarial = 0.8
		}
		if knobs&32 != 0 {
			o.Workload.Wildcard, o.Workload.DescAxis = 0.5, 0.4
		}
		if knobs&64 != 0 {
			o.Graph.RefProb = 0.6 // denser cross-references than RandomCase emits
		}
		RunCase(t, o)
	})
}
