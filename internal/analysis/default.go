package analysis

// DefaultAnalyzers returns the eight analyzers with this repository's
// production configuration — what cmd/mrlint and `make lint` run. The first
// five are intraprocedural; hotpathalloc, ctxflow and lifecycle reason over
// the shared module call graph and are only as strong as the package set they
// run on (a subset run sees a narrower graph; `make lint` runs all packages).
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NoPanic(),
		AtomicDiscipline(),
		SnapshotMut(map[string][]string{
			// index.Graph nodes (extents, local similarities, adjacency) are
			// mutated only through package index's own API (Split, SetK);
			// everything downstream treats them as immutable snapshots. The
			// frozen read-path twin (index.Frozen, CSR arrays) is covered by
			// the same entry: after Freeze nothing may write its fields.
			"mrx/internal/index": nil,
			// core.MStar's component list and core.FrozenMStar's frozen
			// component vector are written only by package core (Refine,
			// Freeze/FreezeReusing). The engine's writer refines its MStar
			// in place through core's API and publishes only the frozen
			// views, which nothing writes after freezing.
			"mrx/internal/core": nil,
			// The engines' counters and shard tables are written only by
			// package engine itself.
			"mrx/internal/engine": nil,
		}),
		ErrWrap(ErrWrapConfig{
			Packages:     map[string]string{"mrx/internal/store": "store: "},
			ReadPrefixes: DefaultReadPrefixes,
		}),
		NoLeak(),
		HotPathAlloc(),
		CtxFlow(),
		Lifecycle(),
	}
}
