package query

import (
	"math"
	"slices"
	"sync"

	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
)

// EvalFrozen evaluates e over a frozen index snapshot with sequential
// validation — the frozen counterpart of EvalIndex. The traversal performs
// zero map operations: visited-set bookkeeping uses flat stamp arrays over
// the dense FrozenID space, and per-label lookups are array slices.
func EvalFrozen(fz *index.Frozen, e *pathexpr.Expr) Result {
	sc := GetScratch()
	defer PutScratch(sc)
	return sc.EvalFrozen(fz, e, ValidateOpts{})
}

// EvalFrozen is the package-level EvalFrozen under explicit validation
// options, with sc as the traversal scratch.
func (sc *Scratch) EvalFrozen(fz *index.Frozen, e *pathexpr.Expr, opt ValidateOpts) Result {
	var res Result
	targets := sc.traverseFrozen(fz, e, &res.Cost)
	CollectAnswersFrozen(fz, e, targets, opt, &res)
	return res
}

// CollectAnswersFrozen is CollectAnswers over frozen targets: extents of
// nodes with sufficient local similarity pass through unvalidated, the rest
// are validated against the data graph per opt. Both variants share the
// candidate validation machinery, so frozen and mutable serving cannot
// diverge in validation semantics. It fills res's Answer (unless
// opt.CountOnly), Count, Cost.DataNodes and Precise, and reports whether
// opt.Stop aborted validation.
//
// The targets are distinct nodes of one component, so their extents are
// disjoint: the answer's cardinality is the sum of the precise extents'
// lengths plus the validated matches, which is all CountOnly computes. The
// materialising mode sets Count from the deduplicated answer instead, so
// the differential tests check that claim rather than assume it.
//
//mrx:hotpath frozen answer collection; validation beyond it is the deliberate expensive term
func CollectAnswersFrozen(fz *index.Frozen, e *pathexpr.Expr, targets []index.FrozenID, opt ValidateOpts, res *Result) (stopped bool) {
	res.Precise = true
	req := e.RequiredK()
	exact, inexact := 0, 0
	for _, v := range targets {
		if fz.K(v) >= req {
			exact += fz.Size(v)
		} else {
			res.Precise = false
			inexact += fz.Size(v)
		}
	}
	var hits []graph.NodeID
	if inexact > 0 {
		candidates := make([]graph.NodeID, 0, inexact)
		for _, v := range targets {
			if fz.K(v) < req {
				candidates = append(candidates, fz.Extent(v)...)
			}
		}
		hits, res.Cost.DataNodes, stopped = validateCandidates(fz.Data(), e, candidates, opt)
	}
	if opt.CountOnly {
		res.Count = exact + len(hits)
		return stopped
	}
	if n := exact + len(hits); n > 0 {
		answer := make([]graph.NodeID, 0, n)
		for _, v := range targets {
			if fz.K(v) >= req {
				answer = append(answer, fz.Extent(v)...)
			}
		}
		res.Answer = dedupeIDs(append(answer, hits...))
	}
	res.Count = len(res.Answer)
	return stopped
}

// Mark is a reusable visited set over dense FrozenIDs with O(1) reset:
// instead of clearing (or reallocating) a map per traversal step, Next bumps
// a round stamp. The frozen read path uses it everywhere a mutable-graph
// traversal would allocate a map. The zero Mark is empty; Reset sizes it.
type Mark struct {
	stamp []int32
	round int32
}

// Reset sizes m for n dense IDs and starts a new round. The stamp array is
// reused when it is large enough, so a pooled Mark grows to the largest
// component it has seen and then stops allocating.
func (m *Mark) Reset(n int) {
	if cap(m.stamp) < n {
		m.stamp = make([]int32, n)
	}
	m.stamp = m.stamp[:n]
	m.Next()
}

// Next starts a new round, invalidating all previous Set calls. Before the
// round counter would wrap, every stamp (up to the array's capacity, which a
// later Reset may expose again) is cleared, so a stamp left from an earlier
// cycle of rounds can never read as Seen.
func (m *Mark) Next() {
	if m.round == math.MaxInt32 {
		clear(m.stamp[:cap(m.stamp)])
		m.round = 0
	}
	m.round++
}

// Seen reports whether v was Set in the current round.
func (m *Mark) Seen(v index.FrozenID) bool { return m.stamp[v] == m.round }

// Set marks v in the current round.
func (m *Mark) Set(v index.FrozenID) { m.stamp[v] = m.round }

// Scratch is the per-query traversal state of the frozen read path: one
// visited-set Mark and two frontier buffers that a traversal alternates
// between (it reads Cur and appends the next frontier into Spare, then the
// two swap). Queries take one from a process-wide pool and return it when
// done, so steady-state serving allocates none of it; each buffer grows to
// the largest frontier it has held.
type Scratch struct {
	Mark       Mark
	Cur, Spare []index.FrozenID
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns sc to the pool. Nothing read out of its buffers may be
// used afterwards.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// TraverseFrozen evaluates only the index traversal of e over a frozen
// snapshot and returns the matched frozen nodes in ascending order,
// accumulating the index-node cost — the frozen counterpart of TargetNodes.
// The result is the caller's own exact-size slice.
func TraverseFrozen(fz *index.Frozen, e *pathexpr.Expr, cost *Cost) []index.FrozenID {
	sc := GetScratch()
	defer PutScratch(sc)
	return slices.Clone(sc.traverseFrozen(fz, e, cost))
}

// traverseFrozen is TraverseFrozen over sc's buffers: the returned slice
// aliases sc and is valid until sc goes back to the pool.
//
//mrx:hotpath frozen index traversal: stamp arrays, CSR windows, no maps (DESIGN.md §12)
func (sc *Scratch) traverseFrozen(fz *index.Frozen, e *pathexpr.Expr, cost *Cost) []index.FrozenID {
	data := fz.Data()
	frontier := frozenStepZero(sc.Cur[:0], fz, data, e, cost)
	spare := sc.Spare[:0]
	if len(e.Steps) > 1 {
		sc.Mark.Reset(fz.NumNodes())
	}
	for i := 1; i < len(e.Steps) && len(frontier) > 0; i++ {
		if i > 1 {
			sc.Mark.Next()
		}
		s := e.Steps[i]
		if s.Descendant {
			// Descendant axis: closure over index edges, filtered by label.
			// The BFS queue is the frontier followed by every node reached;
			// the reached nodes that match form the next frontier, written
			// back over the consumed one.
			queue := append(spare[:0], frontier...)
			for h := 0; h < len(queue); h++ {
				for _, c := range fz.Children(queue[h]) {
					if sc.Mark.Seen(c) {
						continue
					}
					sc.Mark.Set(c)
					cost.IndexNodes++
					queue = append(queue, c)
				}
			}
			next := frontier[:0]
			for _, c := range queue[len(frontier):] {
				if s.Matches(data.LabelName(fz.Label(c))) {
					next = append(next, c)
				}
			}
			frontier, spare = next, queue
			continue
		}
		next := spare[:0]
		for _, v := range frontier {
			for _, c := range fz.Children(v) {
				cost.IndexNodes++
				if !sc.Mark.Seen(c) && s.Matches(data.LabelName(fz.Label(c))) {
					sc.Mark.Set(c)
					next = append(next, c)
				}
			}
		}
		frontier, spare = next, frontier
	}
	sc.Cur, sc.Spare = frontier, spare
	slices.Sort(frontier)
	return frontier
}

// frozenStepZero appends the step-0 frontier to dst. The label-bucket case
// copies the CSR window: the caller sorts the frontier in place, and the
// snapshot's arrays are immutable.
func frozenStepZero(dst []index.FrozenID, fz *index.Frozen, data *graph.Graph, e *pathexpr.Expr, cost *Cost) []index.FrozenID {
	if e.Rooted {
		root := fz.Root()
		cost.IndexNodes++
		for _, c := range fz.Children(root) {
			cost.IndexNodes++
			if e.Steps[0].Matches(data.LabelName(fz.Label(c))) {
				dst = append(dst, c)
			}
		}
		return dst
	}
	if e.Steps[0].Wildcard {
		for i := 0; i < fz.NumNodes(); i++ {
			dst = append(dst, index.FrozenID(i))
		}
		cost.IndexNodes += fz.NumNodes()
		return dst
	}
	if l, ok := data.LabelIDOf(e.Steps[0].Label); ok {
		nodes := fz.NodesWithLabel(l)
		cost.IndexNodes += len(nodes)
		return append(dst, nodes...)
	}
	return dst
}
