package mrx

import (
	"mrx/internal/baseline"
	"mrx/internal/core"
	"mrx/internal/index"
	"mrx/internal/query"
)

// Index is a structural index graph: nodes carry an extent (an equivalence
// class of data nodes) and a local similarity value k.
type Index = index.Graph

// IndexNode is one node of a structural index.
type IndexNode = index.Node

// IndexStats summarizes an index graph.
type IndexStats = index.Stats

// KInfinity is the local similarity of 1-index nodes, whose extents are
// fully bisimilar and therefore precise for paths of any length.
const KInfinity = baseline.KInfinity

// BuildAK builds the A(k)-index of g: the k-bisimilarity partition with a
// single global resolution k (Kaushik et al., ICDE 2002).
func BuildAK(g *Graph, k int) *Index { return baseline.AK(g, k) }

// Build1Index builds the 1-index of g (Milo & Suciu): full-bisimulation
// classes, precise for every simple path expression. It also returns the
// graph's bisimulation depth.
func Build1Index(g *Graph) (*Index, int) { return baseline.OneIndex(g) }

// BuildDK builds a D(k)-index from scratch for a workload of frequently
// used path expressions, using the construction procedure of Chen et al.
// (SIGMOD 2003): every index node with label l gets the workload-derived
// local similarity requirement of l.
func BuildDK(g *Graph, fups []*PathExpr) (*Index, error) {
	return baseline.DKConstruct(g, fups)
}

// DKPromote is the incrementally refined D(k)-index (PROMOTE procedure).
// It over-refines for irrelevant data nodes and under overqualified
// parents; it is provided as the baseline the M(k)-index improves on.
type DKPromote = baseline.DKPromote

// NewDKPromote initializes a D(k)-promote index as an A(0)-index of g.
func NewDKPromote(g *Graph) *DKPromote { return baseline.NewDKPromote(g) }

// MK is the M(k)-index (paper §3): adaptive like D(k)-promote, but its
// REFINE procedure uses the query's data-graph target set so irrelevant
// index and data nodes are never over-refined.
type MK = core.MK

// NewMK initializes an M(k)-index as an A(0)-index of g.
func NewMK(g *Graph) *MK { return core.NewMK(g) }

// MStar is the M*(k)-index (paper §4): a hierarchy of component indexes at
// resolutions 0..k that additionally eliminates over-refinement due to
// overqualified parents and supports multiresolution query evaluation
// (naive, top-down, and subpath pre-filtering strategies).
type MStar = core.MStar

// MStarSizes reports M*(k) sizes under the paper's deduplicated accounting
// and the naive logical accounting.
type MStarSizes = core.SizeStats

// MStarOptions configures an M*(k)-index built with NewMStarOpts: a
// resolution cap (MaxK), the query strategy, and the validation worker-pool
// size.
type MStarOptions = core.MStarOptions

// Strategy names an M*(k) query-evaluation strategy for MStarOptions and
// EngineOptions; the zero value selects the default (top-down).
type Strategy = core.Strategy

// Query-evaluation strategies.
const (
	StrategyTopDown  = core.StrategyTopDown
	StrategyNaive    = core.StrategyNaive
	StrategySubpath  = core.StrategySubpath
	StrategyBottomUp = core.StrategyBottomUp
	StrategyHybrid   = core.StrategyHybrid
	StrategyAuto     = core.StrategyAuto
)

// NewMStar initializes an M*(k)-index with the single component I0 and
// default options.
func NewMStar(g *Graph) *MStar { return core.NewMStar(g) }

// NewMStarOpts initializes an M*(k)-index with the single component I0 and
// explicit options.
func NewMStarOpts(g *Graph, opts MStarOptions) *MStar { return core.NewMStarOpts(g, opts) }

// FrozenIndex is an immutable, CSR-flattened snapshot of an Index: the
// read-path twin of the mutable refinement graph. It contains no maps at
// all — serving queries from it performs zero map operations and traverses
// in a deterministic order. Obtain one with Index.Freeze.
type FrozenIndex = index.Frozen

// FrozenID identifies a node inside one FrozenIndex; IDs are dense.
type FrozenID = index.FrozenID

// FrozenMStar is the frozen read-path view of an M*(k)-index: one
// FrozenIndex per component, evaluating the same query strategies over flat
// arrays. The Engine serves every query from one. Obtain it with
// MStar.Freeze (or FreezeReusing for incremental re-freezing).
type FrozenMStar = core.FrozenMStar

// Querier is the uniform query interface implemented by every index in the
// package: single-graph indexes via AsQuerier, the adaptive indexes
// (DKPromote, MK, MStar, UD) directly, and the concurrent Engine.
//
// (The historical free function QueryIndex(ig, e) is gone; write
// AsQuerier(ig).Query(e) instead.)
type Querier = query.Querier

// AsQuerier wraps a single-graph structural index (1-index, A(k),
// D(k)-construct, or an adaptive index's underlying graph) as a Querier.
func AsQuerier(ig *Index) Querier { return query.AsQuerier(ig) }

// ContextQuerier is the context-aware counterpart of Querier: evaluation
// observes ctx and aborts — returning ctx's error — once the context is
// canceled or past its deadline. Engine implements it natively (QueryCtx
// polls ctx between validation candidates); the network serving layer
// consumes only this interface, so any index type can sit behind mrserve.
type ContextQuerier = query.ContextQuerier

// AsContextQuerier adapts any Querier to ContextQuerier. Types that already
// implement it (Engine) are returned unchanged; for the rest, the context
// is honored at call boundaries around the uninterruptible Query.
func AsContextQuerier(q Querier) ContextQuerier { return query.AsContextQuerier(q) }

// UD is the UD(k,l)-index (Wu et al., WAIM 2003), discussed in §2/§4.1 of
// the paper: up- and down-bisimilarity combined, precise for branching
// queries //p[q] with length(p) ≤ k and length(q) ≤ l.
type UD = baseline.UD

// BranchingResult is the outcome of a branching query //p[q].
type BranchingResult = query.BranchingResult

// QueryIndexBranching evaluates the branching query //in[out] over any
// structural index: the outgoing predicate is checked on the index graph
// (safe) and validated against the data unless a UD(k,l)-style downward
// guarantee covers it (downGuarantee = 0 for up-only indexes).
func QueryIndexBranching(ig *Index, in, out *PathExpr, downGuarantee int) BranchingResult {
	return query.EvalBranching(ig, in, out, downGuarantee)
}

// NewUD builds the UD(k,l)-index of g.
func NewUD(g *Graph, k, l int) *UD { return baseline.NewUD(g, k, l) }

// EvalBranching computes the ground truth of the branching query //p[q] on
// the data graph: nodes that terminate an instance of in and start an
// instance of out.
func EvalBranching(g *Graph, in, out *PathExpr) []NodeID {
	return query.EvalBranchingData(g, in, out)
}
