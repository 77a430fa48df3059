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
//
// Unlike the mutable index, the frozen view stores the paper's
// supernode/subnode links: links[i] lists the subnodes in I(i+1) of every
// node of I(i), so a query changes resolution by walking them (descend)
// instead of scanning extents.
type FrozenMStar struct {
	data  *graph.Graph
	comps []*index.Frozen
	links []subLinks
	opts  MStarOptions
}

// subLinks is the subnode relation between adjacent components I(i) and
// I(i+1): the subnodes of I(i) node u are subs[start[u]:start[u+1]], in
// ascending FrozenID order. Components are nested partitions, so every
// I(i+1) node is listed exactly once, under its one supernode.
type subLinks struct {
	start []int32
	subs  []index.FrozenID
}

// of returns the subnodes of u, ascending. The slice aliases the links.
func (l subLinks) of(u index.FrozenID) []index.FrozenID {
	return l.subs[l.start[u]:l.start[u+1]]
}

// newSubLinks lists fine node f under its supernode owner[f] (< coarse) by
// one counting transpose. Fine nodes are placed in ascending order, so every
// list comes out ascending without a sort.
func newSubLinks(owner []index.FrozenID, coarse int) subLinks {
	// Counting u's subnodes at start[u+2] makes start[u+1] u's first slot
	// after the prefix sum; the fill advances it to u's end, which is
	// u+1's start, so start[:coarse+1] ends up as the offsets.
	start := make([]int32, coarse+2)
	for _, u := range owner {
		start[u+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	subs := make([]index.FrozenID, len(owner))
	for f, u := range owner {
		subs[start[u+1]] = index.FrozenID(f)
		start[u+1]++
	}
	return subLinks{start: start[:coarse+1], subs: subs}
}

// linkFrozen builds the subnode links from coarse to fine, two components
// frozen from one nested M*(k): the supernode of a fine node is the coarse
// owner of any member of its extent. It is O(fine nodes).
func linkFrozen(coarse, fine *index.Frozen) subLinks {
	owner := make([]index.FrozenID, fine.NumNodes())
	for f := range owner {
		owner[f] = coarse.NodeOf(fine.Extent(index.FrozenID(f))[0])
	}
	return newSubLinks(owner, coarse.NumNodes())
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
// byte-identical for every worker count. The subnode links are rebuilt only
// for pairs of adjacent components of which at least one was re-frozen;
// the other pairs share baseFz's links.
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
	parallelFor(len(moved), ms.opts.Parallelism, func(j int) {
		i := moved[len(moved)-1-j]
		comps[i] = ms.comps[i].Freeze()
	})
	links := make([]subLinks, len(comps)-1)
	for i := range links {
		if baseFz != nil && i < len(baseFz.links) &&
			comps[i] == baseFz.comps[i] && comps[i+1] == baseFz.comps[i+1] {
			links[i] = baseFz.links[i]
			continue
		}
		links[i] = linkFrozen(comps[i], comps[i+1])
	}
	return &FrozenMStar{data: ms.data, comps: comps, links: links, opts: ms.opts}
}

// parallelFor runs fn(0), …, fn(n-1) on up to workers goroutines, which
// claim the indices in ascending order; workers <= 1 runs them one after
// the other on the calling goroutine.
func parallelFor(n, workers int, fn func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	if workers = min(workers, n); workers <= 1 {
		run()
		return
	}
	var wg sync.WaitGroup
	for ; workers > 0; workers-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
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
// of the corresponding component of ms, and that the stored subnode links
// are the relation the extents define — the frozen ≡ mutable oracle the
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
	return fm.checkLinks()
}

// checkLinks compares every stored subnode list with its extent scan: the
// subnodes of u are the fine owners of the members of u's extent.
func (fm *FrozenMStar) checkLinks() error {
	if len(fm.links) != len(fm.comps)-1 {
		return fmt.Errorf("frozen M*(k): %d link levels for %d components", len(fm.links), len(fm.comps))
	}
	var want []index.FrozenID
	for i, l := range fm.links {
		coarse, fine := fm.comps[i], fm.comps[i+1]
		if len(l.start) != coarse.NumNodes()+1 || len(l.subs) != fine.NumNodes() {
			return fmt.Errorf("links I%d→I%d: %d offsets and %d subnodes for %d and %d nodes",
				i, i+1, len(l.start), len(l.subs), coarse.NumNodes(), fine.NumNodes())
		}
		for u := range index.FrozenID(coarse.NumNodes()) {
			want = want[:0]
			for _, o := range coarse.Extent(u) {
				want = append(want, fine.NodeOf(o))
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if got := l.of(u); !slices.Equal(got, want) {
				return fmt.Errorf("links I%d→I%d: node %d has subnodes %v, its extent gives %v", i, i+1, u, got, want)
			}
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
			cur, spare = fm.descend(cur, spare, prev, lvl)
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

// descend maps a frontier of distinct I(from) nodes to their subnodes in
// I(to), from ≤ to, walking the stored links one level at a time. The
// frontier is read from cur and the levels alternate between cur and spare,
// so descend returns both buffers: out holds the subnodes in ascending
// order, free is the other buffer. Distinct nodes of one component have
// disjoint subnodes (the components are nested partitions), so the walk
// needs no visited set and costs O(subnodes reached); from == to returns the
// frontier itself.
func (fm *FrozenMStar) descend(cur, spare []index.FrozenID, from, to int) (out, free []index.FrozenID) {
	for _, l := range fm.links[from:to] {
		spare = spare[:0]
		for _, u := range cur {
			spare = append(spare, l.of(u)...)
		}
		cur, spare = spare, cur
	}
	if from < to {
		slices.Sort(cur)
	}
	return cur, spare
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
	cur, spare := fm.descend(coarseHits, sc.Spare, subLvl, lvl)
	res.Cost.IndexNodes += len(cur)

	// Verify the full prefix e[0..end] backwards from the candidates, keeping
	// the survivors in place; the memo is a flat (node, step) table shared
	// across candidates, so overlapping ancestor cones are walked once.
	if end > 0 {
		memo := newPrefixMemo(sc.Memo, comp.NumNodes(), end+1)
		kept := cur[:0]
		for _, c := range cur {
			if fm.hasPrefixInto(comp, c, e.Steps[:end+1], &memo, &res.Cost) {
				kept = append(kept, c)
			}
		}
		cur = kept
		sc.Memo = memo.state
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

// newPrefixMemo returns an all-unknown memo over buf, which it grows if it
// is too small; hand memo.state back to the scratch that lent buf.
func newPrefixMemo(buf []uint8, nodes, steps int) prefixMemo {
	buf = slices.Grow(buf[:0], nodes*steps)[:nodes*steps]
	clear(buf)
	return prefixMemo{state: buf, steps: steps}
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
