package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// FrozenMStar is the immutable, CSR-flattened read-path view of an
// M*(k)-index: one index.Frozen per component. The engine serves every
// query from a FrozenMStar while its writer keeps refining the one MStar it
// was frozen from, in place; at publish time only the components whose
// Version moved are re-frozen (FreezeReusing), so an incremental refinement
// republishes mostly shared arrays.
//
// Query evaluation mirrors the mutable strategies but performs zero map
// operations: frontier bookkeeping uses stamp arrays over dense FrozenIDs
// and label lookups are array slices, which also makes traversal order
// deterministic. The demonstration strategies bottom-up and hybrid are not
// ported to the frozen read path; a FrozenMStar configured with them serves
// top-down instead (identical answers — the strategies differ only in cost
// profile — and QueryOpts reports the strategy that actually ran).
type FrozenMStar struct {
	data  *graph.Graph
	comps []*index.Frozen
	opts  MStarOptions
}

// Freeze flattens every component into an immutable snapshot, on up to
// Options().Parallelism goroutines (see FreezeReusing).
func (ms *MStar) Freeze() *FrozenMStar {
	return ms.FreezeReusing(nil, nil)
}

// Versions returns the per-component version vector of ms. Versions only
// advance on observable mutations, so a writer that saves the vector before
// refining in place can tell a no-op refinement (UnchangedSince) and which
// components it has to re-freeze (FreezeReusing).
func (ms *MStar) Versions() []uint64 {
	vv := make([]uint64, len(ms.comps))
	for i, c := range ms.comps {
		vv[i] = c.Version()
	}
	return vv
}

// FreezeReusing is Freeze with cross-generation structural sharing: any
// component whose Version still equals base[i] is reused from baseFz instead
// of being re-frozen. base must be the version vector of ms taken when baseFz
// was frozen from it, with only in-place refinement of ms in between; pass
// nil, nil to freeze everything.
//
// The components whose version moved are frozen on up to
// Options().Parallelism goroutines; values <= 1 freeze them one after the
// other. Components freeze independently of each other, so the snapshot is
// byte-identical for every worker count.
func (ms *MStar) FreezeReusing(base []uint64, baseFz *FrozenMStar) *FrozenMStar {
	comps := make([]*index.Frozen, len(ms.comps))
	var moved []int
	for i, c := range ms.comps {
		if i < len(base) && i < len(baseFz.comps) && c.Version() == base[i] {
			comps[i] = baseFz.comps[i]
			continue
		}
		moved = append(moved, i)
	}
	// Workers claim the moved components finest first: finer components
	// are the larger ones, so the longest freezes start earliest.
	var next atomic.Int64
	freeze := func() {
		for j := int(next.Add(1)); j <= len(moved); j = int(next.Add(1)) {
			i := moved[len(moved)-j]
			comps[i] = ms.comps[i].Freeze()
		}
	}
	if workers := min(ms.opts.Parallelism, len(moved)); workers <= 1 {
		freeze()
	} else {
		var wg sync.WaitGroup
		for ; workers > 0; workers-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				freeze()
			}()
		}
		wg.Wait()
	}
	return &FrozenMStar{data: ms.data, comps: comps, opts: ms.opts}
}

// UnchangedSince reports whether ms still has the component count and
// per-component versions of the saved vector base: the refinement run since
// base was taken was a no-op, and publishing would repeat the snapshot.
func (ms *MStar) UnchangedSince(base []uint64) bool {
	return slices.Equal(ms.Versions(), base)
}

// Data returns the underlying data graph.
func (fm *FrozenMStar) Data() *graph.Graph { return fm.data }

// NumComponents returns the number of frozen component snapshots.
func (fm *FrozenMStar) NumComponents() int { return len(fm.comps) }

// Component returns frozen component Ii.
func (fm *FrozenMStar) Component(i int) *index.Frozen { return fm.comps[i] }

// Options returns the options of the index this view was frozen from.
func (fm *FrozenMStar) Options() MStarOptions { return fm.opts }

// CheckAgainst verifies that every frozen component is an exact flattening
// of the corresponding component of ms — the frozen ≡ mutable oracle the
// differential tests run after each refine-and-refreeze cycle.
func (fm *FrozenMStar) CheckAgainst(ms *MStar) error {
	if fm.NumComponents() != ms.NumComponents() {
		return fmt.Errorf("frozen M*(k): %d components, mutable has %d",
			fm.NumComponents(), ms.NumComponents())
	}
	for i, fz := range fm.comps {
		if err := fz.CheckAgainst(ms.comps[i]); err != nil {
			return fmt.Errorf("component I%d: %w", i, err)
		}
	}
	return nil
}

// Query evaluates e with the configured strategy and validation options.
func (fm *FrozenMStar) Query(e *pathexpr.Expr) query.Result {
	res, _ := fm.QueryOpts(e, query.ValidateOpts{Workers: fm.opts.Parallelism})
	return res
}

// QueryOpts evaluates e with the configured strategy under explicit
// validation options, reporting which strategy ran. This is the engine's
// read path: it touches only frozen arrays, and its traversal state (the
// visited-set stamps and the frontier buffers) comes from the query
// package's scratch pool, so a warm process allocates none of it.
//
//mrx:hotpath root of every frozen query strategy (naive, top-down, subpath, auto)
func (fm *FrozenMStar) QueryOpts(e *pathexpr.Expr, opt query.ValidateOpts) (query.Result, Strategy) {
	sc := query.GetScratch()
	defer query.PutScratch(sc)
	switch fm.opts.Strategy {
	case StrategyNaive:
		return fm.queryNaive(sc, e, opt), StrategyNaive
	case StrategyAuto:
		return fm.queryAuto(sc, e, opt)
	case StrategySubpath:
		if e.Rooted || e.HasDescendantStep() {
			return fm.queryNaive(sc, e, opt), StrategyNaive
		}
		_, start, end := fm.planner().estimateBestSubpath(e)
		return fm.querySubpath(sc, e, start, end, opt), StrategySubpath
	default:
		// Top-down, including the unported bottom-up and hybrid
		// demonstration strategies (see the type comment).
		return fm.queryTopDown(sc, e, opt), StrategyTopDown
	}
}

func (fm *FrozenMStar) planner() planner {
	return planner{levels: len(fm.comps), count: fm.countAt}
}

func (fm *FrozenMStar) countAt(level int, s pathexpr.Step) int {
	comp := fm.comps[level]
	if s.Wildcard {
		return comp.NumNodes()
	}
	l, ok := fm.data.LabelIDOf(s.Label)
	if !ok {
		return 0
	}
	return comp.CountLabel(l)
}

func (fm *FrozenMStar) queryAuto(sc *query.Scratch, e *pathexpr.Expr, opt query.ValidateOpts) (query.Result, Strategy) {
	if e.Rooted || e.HasDescendantStep() {
		return fm.queryNaive(sc, e, opt), StrategyNaive
	}
	p := fm.planner()
	naive := p.estimateNaive(e)
	top := p.estimateTopDown(e)
	sub, start, end := p.estimateBestSubpath(e)
	switch {
	case sub < naive && sub < top:
		return fm.querySubpath(sc, e, start, end, opt), StrategySubpath
	case top <= naive:
		return fm.queryTopDown(sc, e, opt), StrategyTopDown
	default:
		return fm.queryNaive(sc, e, opt), StrategyNaive
	}
}

// queryNaive evaluates e entirely in component I_min(length, finest).
func (fm *FrozenMStar) queryNaive(sc *query.Scratch, e *pathexpr.Expr, opt query.ValidateOpts) query.Result {
	lvl := fm.planner().clampLevel(e.RequiredK())
	return sc.EvalFrozen(fm.comps[lvl], e, opt)
}

// finish sorts the frozen targets and collects the answer from them,
// mirroring MStar.finish. targets is the frontier last written into sc;
// finish hands the grown buffers back to sc.
func (fm *FrozenMStar) finish(sc *query.Scratch, res *query.Result, comp *index.Frozen, e *pathexpr.Expr, targets, spare []index.FrozenID, opt query.ValidateOpts) {
	sc.Cur, sc.Spare = targets, spare
	slices.Sort(targets)
	query.CollectAnswersFrozen(comp, e, targets, opt, res)
}

// queryTopDown is QUERYTOPDOWN over frozen components: evaluate each prefix
// of e in the coarsest component that can support it, descending through
// the partition hierarchy. Rooted expressions fall back to naive
// evaluation, exactly like the mutable implementation.
//
// Every step reads the frontier cur and appends the next one into spare,
// then the two buffers swap; both come from sc.
func (fm *FrozenMStar) queryTopDown(sc *query.Scratch, e *pathexpr.Expr, opt query.ValidateOpts) query.Result {
	if e.Rooted || e.HasDescendantStep() {
		return fm.queryNaive(sc, e, opt)
	}
	var res query.Result
	maxLvl := len(fm.comps) - 1

	cur := fm.initialFrontier(sc.Cur[:0], fm.comps[0], e.Steps[0], &res.Cost)
	spare := sc.Spare[:0]
	prev := 0
	comp := fm.comps[0]
	for i := 1; i < len(e.Steps) && len(cur) > 0; i++ {
		lvl := min(i, maxLvl)
		if lvl != prev {
			spare = descend(spare[:0], &sc.Mark, cur, fm.comps[prev], fm.comps[lvl])
			cur, spare = spare, cur
			res.Cost.IndexNodes += len(cur)
			prev = lvl
		}
		comp = fm.comps[lvl]
		spare = expandStep(spare[:0], &sc.Mark, comp, fm.data, cur, e.Steps[i], &res.Cost)
		cur, spare = spare, cur
	}
	fm.finish(sc, &res, comp, e, cur, spare, opt)
	return res
}

// initialFrontier appends the step-0 frontier in a component to dst.
func (fm *FrozenMStar) initialFrontier(dst []index.FrozenID, comp *index.Frozen, s pathexpr.Step, cost *query.Cost) []index.FrozenID {
	if s.Wildcard {
		for i := 0; i < comp.NumNodes(); i++ {
			dst = append(dst, index.FrozenID(i))
		}
	} else if l, ok := fm.data.LabelIDOf(s.Label); ok {
		dst = append(dst, comp.NodesWithLabel(l)...)
	}
	cost.IndexNodes += len(dst)
	return dst
}

// expandStep follows child edges from the frontier, appending label matches
// to dst, deduplicated through the stamp array seen.
func expandStep(dst []index.FrozenID, seen *query.Mark, comp *index.Frozen, data *graph.Graph, frontier []index.FrozenID, s pathexpr.Step, cost *query.Cost) []index.FrozenID {
	seen.Reset(comp.NumNodes())
	for _, u := range frontier {
		for _, c := range comp.Children(u) {
			cost.IndexNodes++
			if !seen.Seen(c) && s.Matches(data.LabelName(comp.Label(c))) {
				seen.Set(c)
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// descend maps a frontier of coarse-component nodes to their subnodes in the
// fine component, via extent membership (supernode/subnode links are
// derived, not stored — same as the mutable index), appending them to dst in
// ascending order.
func descend(dst []index.FrozenID, seen *query.Mark, frontier []index.FrozenID, coarse, fine *index.Frozen) []index.FrozenID {
	seen.Reset(fine.NumNodes())
	for _, u := range frontier {
		for _, o := range coarse.Extent(u) {
			n := fine.NodeOf(o)
			if !seen.Seen(n) {
				seen.Set(n)
				dst = append(dst, n)
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// querySubpath implements the subpath pre-filtering strategy over frozen
// components: evaluate e[start..end] in the coarse component I_(end-start),
// descend the matches to the finest component needed by e, verify the full
// prefix backwards there, then expand the suffix forwards.
func (fm *FrozenMStar) querySubpath(sc *query.Scratch, e *pathexpr.Expr, start, end int, opt query.ValidateOpts) query.Result {
	if e.Rooted || e.HasDescendantStep() || start < 0 || end >= len(e.Steps) || start > end {
		return fm.queryNaive(sc, e, opt)
	}
	var res query.Result

	sub := &pathexpr.Expr{Steps: e.Steps[start : end+1]}
	subLvl := fm.planner().clampLevel(sub.Length())
	coarseHits := fm.traverseComponent(sc, fm.comps[subLvl], sub, &res.Cost)

	lvl := fm.planner().clampLevel(e.RequiredK())
	comp := fm.comps[lvl]
	cur := descend(sc.Spare[:0], &sc.Mark, coarseHits, fm.comps[subLvl], comp)
	spare := coarseHits
	res.Cost.IndexNodes += len(cur)

	// Verify the full prefix e[0..end] backwards from the candidates, keeping
	// the survivors in place; the memo is a flat (node, step) table shared
	// across candidates, so overlapping ancestor cones are walked once.
	if end > 0 {
		memo := newPrefixMemo(comp.NumNodes(), end+1)
		kept := cur[:0]
		for _, c := range cur {
			if fm.hasPrefixInto(comp, c, e.Steps[:end+1], memo, &res.Cost) {
				kept = append(kept, c)
			}
		}
		cur = kept
	}

	for i := end + 1; i < len(e.Steps) && len(cur) > 0; i++ {
		spare = expandStep(spare[:0], &sc.Mark, comp, fm.data, cur, e.Steps[i], &res.Cost)
		cur, spare = spare, cur
	}
	fm.finish(sc, &res, comp, e, cur, spare, opt)
	return res
}

// prefixMemo memoizes backward prefix checks per (node, step) in a flat
// table: 0 unknown, 1 true, 2 false.
type prefixMemo struct {
	state []uint8
	steps int
}

func newPrefixMemo(nodes, steps int) *prefixMemo {
	return &prefixMemo{state: make([]uint8, nodes*steps), steps: steps}
}

func (m *prefixMemo) at(v index.FrozenID, step int) uint8 { return m.state[int(v)*m.steps+step] }
func (m *prefixMemo) set(v index.FrozenID, step int, ok bool) {
	s := uint8(2)
	if ok {
		s = 1
	}
	m.state[int(v)*m.steps+step] = s
}

// hasPrefixInto reports whether some label path matching steps leads into
// frozen node v, walking parent edges backwards; each node examined is
// counted in cost.
func (fm *FrozenMStar) hasPrefixInto(comp *index.Frozen, v index.FrozenID, steps []pathexpr.Step, memo *prefixMemo, cost *query.Cost) bool {
	var walk func(n index.FrozenID, step int) bool
	walk = func(n index.FrozenID, step int) bool {
		if !steps[step].Matches(fm.data.LabelName(comp.Label(n))) {
			return false
		}
		if step == 0 {
			return true
		}
		if s := memo.at(n, step); s != 0 {
			return s == 1
		}
		memo.set(n, step, false)
		ok := false
		for _, p := range comp.Parents(n) {
			cost.IndexNodes++
			if walk(p, step-1) {
				ok = true
				break
			}
		}
		memo.set(n, step, ok)
		return ok
	}
	return walk(v, len(steps)-1)
}

// traverseComponent evaluates a descendant-free expression over one frozen
// component, accumulating traversal cost. It returns the matched nodes in
// ascending order in sc.Cur; sc.Spare is free for the caller.
func (fm *FrozenMStar) traverseComponent(sc *query.Scratch, comp *index.Frozen, e *pathexpr.Expr, cost *query.Cost) []index.FrozenID {
	cur := fm.initialFrontier(sc.Cur[:0], comp, e.Steps[0], cost)
	spare := sc.Spare[:0]
	for i := 1; i < len(e.Steps) && len(cur) > 0; i++ {
		spare = expandStep(spare[:0], &sc.Mark, comp, fm.data, cur, e.Steps[i], cost)
		cur, spare = spare, cur
	}
	sc.Cur, sc.Spare = cur, spare
	slices.Sort(cur)
	return cur
}
