package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// refEngine is the monolithic engine's write side as it stood before the
// Engine became a one-shard Sharded: its own snapshot pointer, its own
// Support/Retire no-op ladder, and its own persist wiring. The Support,
// publish and Retire bodies below are kept verbatim, but for type names and
// the version-vector form of UnchangedSince/FreezeReusing, as the
// differential oracle for shard.State, the lifecycle that replaced them.
type refEngine struct {
	workers int

	mu   sync.Mutex
	snap atomic.Pointer[refSnapshot]

	persist *refPersist

	stats refStats
}

// refStats holds the counters the old write side bumped.
type refStats struct {
	refinements    atomic.Uint64
	refinesSkipped atomic.Uint64
	retirements    atomic.Uint64
	retiresSkipped atomic.Uint64
	publishes      atomic.Uint64
	persistErrors  atomic.Uint64
}

// refSnapshot is one immutable generation of the old engine.
type refSnapshot struct {
	gen   uint64
	ms    *core.MStar
	fz    *core.FrozenMStar
	serve *core.FrozenMStar
}

// refPersist republishes frozen snapshots to one on-disk path and remaps
// them for serving, as the old engine did.
type refPersist struct {
	path string
	wo   mmapstore.WriteOptions
	g    *graph.Graph
	mo   core.MStarOptions
}

func (p *refPersist) republish(fz *core.FrozenMStar) (*core.FrozenMStar, error) {
	if err := mmapstore.Publish(p.path, fz, p.wo); err != nil {
		return nil, fmt.Errorf("engine: persist %s: %w", p.path, err)
	}
	snap, err := mmapstore.Open(p.path, p.g, mmapstore.Options{Trusted: true, MStar: p.mo})
	if err != nil {
		return nil, fmt.Errorf("engine: persist %s: reopen: %w", p.path, err)
	}
	return snap.FrozenMStar(), nil
}

// newRefEngine builds the old engine's generation 0 exactly as New did.
func newRefEngine(t *testing.T, g *graph.Graph, opts Options) *refEngine {
	t.Helper()
	opts.MStar = opts.MStar.WithParallelism(opts.Parallelism)
	en := &refEngine{workers: opts.Parallelism}
	ms := core.NewMStarOpts(g, opts.MStar)
	fz := ms.Freeze()
	first := &refSnapshot{ms: ms, fz: fz, serve: fz}
	if opts.Persist != nil {
		en.persist = &refPersist{
			path: filepath.Join(opts.Persist.Dir, persistFile),
			wo:   mmapstore.WriteOptions{CompactExtents: opts.Persist.Compact},
			g:    g,
			mo:   opts.MStar,
		}
		mapped, err := en.persist.republish(fz)
		if err != nil {
			t.Fatal(err)
		}
		first.serve = mapped
	}
	en.snap.Store(first)
	return en
}

func (en *refEngine) Support(e *pathexpr.Expr) bool {
	en.mu.Lock()
	defer en.mu.Unlock()

	cur := en.snap.Load()
	if cur.ms.HasFUP(e) {
		// Already supported at its (possibly MaxK-capped) resolution.
		en.stats.refinesSkipped.Add(1)
		return false
	}
	res, _ := cur.fz.QueryOpts(e, query.ValidateOpts{Workers: en.workers})
	if res.Precise {
		en.stats.refinesSkipped.Add(1)
		return false
	}
	base := cur.ms.Versions()
	clone := cur.ms.Clone()
	clone.Refine(e, res.Answer)
	if clone.UnchangedSince(base) {
		// MaxK cap (or a descendant-axis FUP) made refinement a no-op;
		// don't publish an identical snapshot. Clone preserves component
		// versions and versions only advance on observable mutations, so
		// an unchanged version vector detects this without walking the
		// graphs.
		en.stats.refinesSkipped.Add(1)
		return false
	}
	// Re-freeze only the components the refinement dirtied; untouched ones
	// are shared with the outgoing snapshot.
	fz := clone.FreezeReusing(base, cur.fz)
	en.publish(&refSnapshot{gen: cur.gen + 1, ms: clone, fz: fz})
	en.stats.refinements.Add(1)
	return true
}

func (en *refEngine) publish(next *refSnapshot) {
	next.serve = next.fz
	if en.persist != nil {
		if mapped, err := en.persist.republish(next.fz); err != nil {
			en.stats.persistErrors.Add(1)
		} else {
			next.serve = mapped
		}
	}
	en.snap.Store(next)
	en.stats.publishes.Add(1)
}

func (en *refEngine) Retire(e *pathexpr.Expr) bool {
	en.mu.Lock()
	defer en.mu.Unlock()

	cur := en.snap.Load()
	rebuilt, ok := cur.ms.Retire(e)
	if !ok {
		en.stats.retiresSkipped.Add(1)
		return false
	}
	// The rebuild starts from a fresh I0, so no component of the outgoing
	// frozen view can be reused: freeze from scratch.
	en.publish(&refSnapshot{gen: cur.gen + 1, ms: rebuilt, fz: rebuilt.Freeze()})
	en.stats.retirements.Add(1)
	return true
}

func encodeFrozen(t *testing.T, fz *core.FrozenMStar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mmapstore.Write(&buf, fz, mmapstore.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fupKeys renders a FUP list as its canonical forms, in order.
func fupKeys(fups []*pathexpr.Expr) string {
	keys := make([]string, len(fups))
	for i, e := range fups {
		keys[i] = pathexpr.Canonical(e)
	}
	return fmt.Sprint(keys)
}

// The Engine, now a one-shard Sharded over shard.State, must walk the same
// lifecycle as the old monolithic write side: after every Support and
// Retire the same published verdict, the same generation, the same
// counters, the same FUP registry, and a byte-identical frozen snapshot (and, under Persist, a
// byte-identical file on disk). The workloads mix witnessed FUPs with
// rooted, wildcard, descendant-axis and adversarial expressions, so every
// rung of the no-op ladder is taken; MaxK 2 adds capped no-op refinements.
func TestEngineMatchesReferenceLifecycle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for comps := 1; comps <= 3; comps++ {
			for _, maxK := range []int{0, 2} {
				for _, persist := range []bool{false, true} {
					name := fmt.Sprintf("seed%d/comps%d/maxk%d/persist%v", seed, comps, maxK, persist)
					t.Run(name, func(t *testing.T) {
						checkAgainstReference(t, seed, comps, maxK, persist)
					})
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, seed int64, comps, maxK int, persist bool) {
	g := gtest.New(seed, gtest.Options{Nodes: 250, Labels: 6, RefProb: 0.12, Components: comps})
	workload := gtest.RandomWorkload(seed+100, g, gtest.WorkloadOptions{
		Size: 24, MaxLen: 4, Adversarial: 0.15, Rooted: 0.2, Wildcard: 0.1, DescAxis: 0.1,
	})
	opts := Options{Parallelism: 2, MStar: core.MStarOptions{MaxK: maxK}}
	refOpts := opts
	if persist {
		opts.Persist = &PersistOptions{Dir: t.TempDir()}
		refOpts.Persist = &PersistOptions{Dir: t.TempDir()}
	}
	en := mustNew(t, g, opts)
	ref := newRefEngine(t, g, refOpts)

	step := 0
	compare := func(op string, e *pathexpr.Expr, got, want bool) {
		t.Helper()
		step++
		if got != want {
			t.Fatalf("step %d %s %s: published %v, reference %v", step, op, e, got, want)
		}
		cur := ref.snap.Load()
		if en.Generation() != cur.gen {
			t.Fatalf("step %d %s %s: generation %d, reference %d", step, op, e, en.Generation(), cur.gen)
		}
		if got, want := fupKeys(en.SupportedFUPs()), fupKeys(cur.ms.SupportedFUPs()); got != want {
			t.Fatalf("step %d %s %s: supported FUPs %s, reference %s", step, op, e, got, want)
		}
		enc := encodeFrozen(t, en.FrozenSnapshot())
		if !bytes.Equal(enc, encodeFrozen(t, cur.fz)) {
			t.Fatalf("step %d %s %s: frozen snapshot differs from the reference", step, op, e)
		}
		if persist {
			onDisk, err := os.ReadFile(filepath.Join(opts.Persist.Dir, persistFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, enc) {
				t.Fatalf("step %d %s %s: %s is not the frozen snapshot's encoding", step, op, e, persistFile)
			}
			if en.ServingSnapshot() == en.FrozenSnapshot() {
				t.Fatalf("step %d %s %s: serving the heap view under Persist", step, op, e)
			}
		}
	}

	exprs := make([]*pathexpr.Expr, len(workload))
	for i, w := range workload {
		exprs[i] = mustParse(w)
	}
	// Support everything, retire every third expression, then Support the
	// whole workload again: re-Supports hit the registry, retired FUPs
	// refine afresh on the rebuilt index.
	for _, e := range exprs {
		compare("Support", e, en.Support(e), ref.Support(e))
	}
	for i := 0; i < len(exprs); i += 3 {
		compare("Retire", exprs[i], en.Retire(exprs[i]), ref.Retire(exprs[i]))
	}
	for _, e := range exprs {
		compare("Support", e, en.Support(e), ref.Support(e))
	}
	for _, e := range exprs[:4] {
		compare("Retire", e, en.Retire(e), ref.Retire(e))
	}

	st := en.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"refinements", st.Refinements, ref.stats.refinements.Load()},
		{"refines skipped", st.RefinesSkipped, ref.stats.refinesSkipped.Load()},
		{"retirements", st.Retirements, ref.stats.retirements.Load()},
		{"retires skipped", st.RetiresSkipped, ref.stats.retiresSkipped.Load()},
		{"publishes", st.SnapshotPublishes, ref.stats.publishes.Load()},
		{"persist errors", st.PersistErrors, ref.stats.persistErrors.Load()},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, reference %d", c.name, c.got, c.want)
		}
	}
	if st.Refinements == 0 || st.Retirements == 0 {
		t.Errorf("workload too weak: %d refinements, %d retirements", st.Refinements, st.Retirements)
	}
}
