package query

import (
	"sync"

	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
)

// ValidateOpts configures how the extents of under-refined index nodes are
// validated against the data graph.
type ValidateOpts struct {
	// Workers bounds the validation worker pool. Values <= 1 validate
	// sequentially with a single shared memo, reproducing the paper's cost
	// accounting exactly. Higher values partition the candidate data nodes
	// across up to that many goroutines, each with a private memo; the
	// answer is identical, but the reported DataNodes cost can exceed the
	// sequential count because memoization is not shared across workers.
	Workers int
	// Stop, when non-nil, is polled between candidates; once it returns
	// true, validation aborts and the collected answer is partial. Engine
	// uses it to plumb context cancellation into long validations. With
	// Workers > 1 it is called from every worker goroutine concurrently, so
	// it must be safe for concurrent use.
	Stop func() bool
	// CountOnly asks the frozen read path for the answer's cardinality
	// (Result.Count) without materialising it: precise extents are summed,
	// not copied, and Result.Answer stays nil. Costs and precision are the
	// same as in the materialising mode.
	CountOnly bool
}

// parallelThreshold is the minimum number of candidate data nodes before
// validation fans out to a worker pool; below it, goroutine startup costs
// more than the validation itself.
const parallelThreshold = 64

// minPerWorker caps the pool size so each worker gets a meaningful chunk.
const minPerWorker = 32

// CollectAnswers assembles the answer of e from its matched target index
// nodes: extents of nodes with sufficient local similarity (k >= RequiredK)
// pass through unvalidated, the rest are validated against the data graph g
// per opt. It returns the sorted, deduplicated answer, the number of data
// nodes visited (the paper's validation cost), whether every target was
// precise, and whether opt.Stop aborted the work early.
func CollectAnswers(g *graph.Graph, e *pathexpr.Expr, targets []*index.Node, opt ValidateOpts) (answer []graph.NodeID, visited int, precise, stopped bool) {
	precise = true
	var candidates []graph.NodeID
	for _, v := range targets {
		if v.K() >= e.RequiredK() {
			answer = append(answer, v.Extent()...)
			continue
		}
		precise = false
		candidates = append(candidates, v.Extent()...)
	}
	if len(candidates) > 0 {
		var matched []graph.NodeID
		matched, visited, stopped = validateCandidates(g, e, candidates, opt)
		answer = append(answer, matched...)
	}
	return dedupeIDs(answer), visited, precise, stopped
}

// validateCandidates checks which candidate data nodes terminate an instance
// of e, sequentially or across a bounded worker pool.
//
//mrx:coldpath validation fan-out is the paper's deliberate expensive term: memo maps, per-worker validators and pool spin-up are the cost being measured, not incidental allocation
func validateCandidates(g *graph.Graph, e *pathexpr.Expr, candidates []graph.NodeID, opt ValidateOpts) (matched []graph.NodeID, visited int, stopped bool) {
	workers := opt.Workers
	if max := len(candidates) / minPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 || len(candidates) < parallelThreshold {
		va := NewValidator(g, e)
		for _, o := range candidates {
			if opt.Stop != nil && opt.Stop() {
				return matched, va.Visited(), true
			}
			if va.Matches(o) {
				matched = append(matched, o)
			}
		}
		return matched, va.Visited(), false
	}

	type part struct {
		matched []graph.NodeID
		visited int
		stopped bool
	}
	parts := make([]part, workers)
	chunk := (len(candidates) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(p *part, cand []graph.NodeID) {
			defer wg.Done()
			va := NewValidator(g, e)
			for _, o := range cand {
				if opt.Stop != nil && opt.Stop() {
					p.stopped = true
					break
				}
				if va.Matches(o) {
					p.matched = append(p.matched, o)
				}
			}
			p.visited = va.Visited()
		}(&parts[w], candidates[lo:hi])
	}
	wg.Wait()
	for i := range parts {
		matched = append(matched, parts[i].matched...)
		visited += parts[i].visited
		stopped = stopped || parts[i].stopped
	}
	return matched, visited, stopped
}

// EvalIndexOpts is EvalIndex with explicit validation options: the index
// traversal is unchanged, while validation of under-refined extents honors
// opt.Workers and opt.Stop. With a zero ValidateOpts it is exactly
// EvalIndex.
func EvalIndexOpts(ig *index.Graph, e *pathexpr.Expr, opt ValidateOpts) Result {
	var res Result
	res.Targets = traverseIndex(ig, e, &res.Cost)
	res.Answer, res.Cost.DataNodes, res.Precise, _ = CollectAnswers(ig.Data(), e, res.Targets, opt)
	return res
}
