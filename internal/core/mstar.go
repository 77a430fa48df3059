package core

import (
	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/partition"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// MStar is the M*(k)-index (§4): a sequence of component indexes
// I0, I1, …, Ik at successively finer resolutions. Component Ii is an
// M(k)-index whose maximum local similarity is i, and Ii+1 refines Ii.
// The hierarchy lets refinement split nodes using "perfectly qualified"
// parents from the coarser component — eliminating over-refinement due to
// overqualified parents — and lets queries run in the coarsest component
// that can answer them.
//
// Components are created lazily: supporting a FUP of length k materializes
// components up to Ik by copying the finest existing one.
//
// This mutable index derives supernode/subnode links rather than storing
// them: component extents are nested partitions, so the supernode of v in a
// coarser component is the node owning any member of v's extent. Links that
// change on every split would cost the writer upkeep; the frozen view it
// publishes (FrozenMStar) stores the subnode links, built once per freeze,
// so queries descend without scanning extents. Size metrics apply the
// paper's deduplicated accounting (DedupNodes/DedupEdges).
type MStar struct {
	data  *graph.Graph
	comps []*index.Graph
	opts  MStarOptions
	// fups records every FUP the index has been refined for, keyed by
	// canonical form. Retire rebuilds from this registry; Clone copies it
	// (expressions are immutable and shared).
	fups map[string]*pathexpr.Expr
}

// NewMStar initializes the M*(k)-index of g with the single component I0,
// an A(0)-index.
func NewMStar(g *graph.Graph) *MStar {
	p := partition.ByLabel(g)
	i0 := index.FromPartition(g, p, func(partition.BlockID) int { return 0 })
	return &MStar{data: g, comps: []*index.Graph{i0}}
}

// Data returns the underlying data graph.
func (ms *MStar) Data() *graph.Graph { return ms.data }

// NumComponents returns the number of materialized component indexes.
func (ms *MStar) NumComponents() int { return len(ms.comps) }

// Component returns component index Ii.
func (ms *MStar) Component(i int) *index.Graph { return ms.comps[i] }

// Finest returns the finest materialized component.
func (ms *MStar) Finest() *index.Graph { return ms.comps[len(ms.comps)-1] }

// Supernode returns the node of component Ilevel whose extent contains the
// extent of v (a node of any finer component).
func (ms *MStar) Supernode(v *index.Node, level int) *index.Node {
	return ms.comps[level].NodeOf(v.Extent()[0])
}

// Subnodes returns the nodes of component Ilevel whose extents partition the
// extent of v (a node of any coarser component), in ID order.
func (ms *MStar) Subnodes(v *index.Node, level int) []*index.Node {
	fine := ms.comps[level]
	seen := make(map[index.NodeID]bool)
	var out []*index.Node
	for _, o := range v.Extent() {
		n := fine.NodeOf(o)
		if !seen[n.ID()] {
			seen[n.ID()] = true
			out = append(out, n)
		}
	}
	sortNodes(out)
	return out
}

func sortNodes(ns []*index.Node) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j-1].ID() > ns[j].ID(); j-- {
			ns[j-1], ns[j] = ns[j], ns[j-1]
		}
	}
}

// extendTo materializes components up to Ik by copying the finest one.
func (ms *MStar) extendTo(k int) {
	for len(ms.comps) <= k {
		ms.comps = append(ms.comps, ms.Finest().Clone())
	}
}

// Support refines the index so that the FUP e is answered precisely:
// it evaluates e (top-down) to obtain the validated data-graph target set,
// then runs REFINE*.
func (ms *MStar) Support(e *pathexpr.Expr) {
	res := ms.Query(e)
	ms.Refine(e, res.Answer)
}

// Refine is the paper's REFINE*(l, S, T): materialize components up to
// length(l), refine the finest-component nodes containing target-set
// members via REFINENODE*, then break surviving under-refined instances of
// l with PROMOTE*. When the index was built with MaxK > 0, the required
// resolution is clamped to MaxK: the FUP is then supported at the capped
// resolution only (queries keep validating the remainder).
func (ms *MStar) Refine(e *pathexpr.Expr, t []graph.NodeID) {
	if e.HasDescendantStep() {
		return // unbounded path lengths: no finite resolution supports them
	}
	k := e.RequiredK()
	if ms.opts.MaxK > 0 && k > ms.opts.MaxK {
		k = ms.opts.MaxK
	}
	if k == 0 {
		return // I0 answers single labels precisely by construction
	}
	ms.recordFUP(e)
	ms.extendTo(k)
	fine := ms.comps[k]
	for _, grp := range groupByNode(fine, t) {
		ms.refineNodeStar(k, grp.node, grp.members)
	}
	for {
		v := underRefined(fine, e, k)
		if v == nil {
			return
		}
		ms.promoteStar(k, v, func() bool { return underRefined(fine, e, k) == nil })
	}
}

type nodeGroup struct {
	node    *index.Node
	members []graph.NodeID
}

func groupByNode(ig *index.Graph, nodes []graph.NodeID) []nodeGroup {
	idx := make(map[index.NodeID]int)
	var out []nodeGroup
	for _, o := range nodes {
		n := ig.NodeOf(o)
		i, ok := idx[n.ID()]
		if !ok {
			i = len(out)
			idx[n.ID()] = i
			out = append(out, nodeGroup{node: n})
		}
		out[i].members = append(out[i].members, o)
	}
	return out
}

func underRefined(ig *index.Graph, e *pathexpr.Expr, k int) *index.Node {
	for _, v := range query.TargetNodes(ig, e) {
		if v.K() < k {
			return v
		}
	}
	return nil
}

// refineNodeStar is REFINENODE*(v, level, relevantData) with v in component
// Ilevel: recursively refine the qualified parents of v's supernode in
// Ilevel−1, then split v's ancestor supernodes level by level starting from
// the first component where the supernode's local similarity is below the
// component's resolution, propagating each split to finer components.
func (ms *MStar) refineNodeStar(level int, v *index.Node, relevant []graph.NodeID) {
	if v.Dead() {
		for _, grp := range groupByNode(ms.comps[level], relevant) {
			ms.refineNodeStar(level, grp.node, grp.members)
		}
		return
	}
	if v.K() >= level || level == 0 {
		return
	}
	predAll := ms.data.Pred(relevant)

	// Lines 2-7: refine qualified parents of supernode(v) in Ilevel-1.
	// Refining a parent can propagate down and split v itself; when that
	// happens the relevant set may span several nodes, so regroup and
	// restart (mirroring the M(k) implementation).
	coarse := ms.comps[level-1]
	for {
		if v.Dead() {
			for _, grp := range groupByNode(ms.comps[level], relevant) {
				ms.refineNodeStar(level, grp.node, grp.members)
			}
			return
		}
		super := coarse.NodeOf(relevant[0])
		var u *index.Node
		var predData []graph.NodeID
		for _, p := range coarse.Parents(super) {
			if p.K() >= level-1 {
				continue
			}
			if pd := graph.Intersect(p.Extent(), predAll); len(pd) > 0 {
				u, predData = p, pd
				break
			}
		}
		if u == nil {
			break
		}
		ms.refineNodeStar(level-1, u, predData)
	}

	// Lines 9-13: split v's ancestor supernodes from istart up to level,
	// propagating changes to all finer components after each split.
	istart := level
	for i := 1; i <= level; i++ {
		if ms.comps[i].NodeOf(relevant[0]).K() < i {
			istart = i
			break
		}
	}
	for i := istart; i <= level; i++ {
		for _, grp := range groupByNode(ms.comps[i], relevant) {
			if grp.node.K() >= i {
				continue
			}
			ms.splitNodeStar(i, grp.node, grp.members)
		}
	}
}

// splitNodeStar is SPLITNODE*(v, i, relevantData): split v (a node of
// component Ii) using the parents of its supernode in Ii−1, which are
// "perfectly qualified" — their local similarity cannot exceed i−1 because
// Ii−1 caps it — so the split is never finer than i-bisimilarity requires.
// Pieces without relevant data merge into a remainder that keeps the old
// local similarity; riders (members with parents in unqualified Ii−1 nodes)
// are evicted into the remainder to preserve Property 1, mirroring the
// M(k) implementation. The split is then propagated to finer components so
// they remain refinements.
func (ms *MStar) splitNodeStar(level int, v *index.Node, relevant []graph.NodeID) {
	if v.Dead() || v.K() >= level {
		return
	}
	fine := ms.comps[level]
	coarse := ms.comps[level-1]
	predAll := ms.data.Pred(relevant)
	super := coarse.NodeOf(relevant[0])

	kold := v.K()
	qualified := make(map[index.NodeID]bool)
	pieces := [][]graph.NodeID{v.Extent()}
	for _, u := range coarse.Parents(super) {
		if !graph.Intersects(u.Extent(), predAll) {
			continue
		}
		qualified[u.ID()] = true
		succ := ms.data.Succ(u.Extent())
		next := pieces[:0:0]
		for _, w := range pieces {
			if in := graph.Intersect(w, succ); len(in) > 0 {
				next = append(next, in)
			}
			if out := graph.Subtract(w, succ); len(out) > 0 {
				next = append(next, out)
			}
		}
		pieces = next
	}

	var kept [][]graph.NodeID
	var ks []int
	var rest []graph.NodeID
	for _, w := range pieces {
		if !graph.Intersects(w, relevant) {
			rest = graph.Union(rest, w)
			continue
		}
		var keep, evict []graph.NodeID
		for _, o := range w {
			if hasUnqualifiedParentIn(ms.data, coarse, o, qualified) {
				evict = append(evict, o)
			} else {
				keep = append(keep, o)
			}
		}
		if len(evict) > 0 {
			rest = graph.Union(rest, evict)
			w = keep
		}
		kept = append(kept, w)
		ks = append(ks, level)
	}
	if len(rest) > 0 {
		kept = append(kept, rest)
		ks = append(ks, kold)
	}
	newNodes := fine.Split(v, kept, ks)

	// Line 13: propagate the change to all subsequent component indexes.
	affected := make([][]graph.NodeID, len(newNodes))
	for i, n := range newNodes {
		affected[i] = n.Extent()
	}
	ms.propagate(level, affected)
}

func hasUnqualifiedParentIn(g *graph.Graph, coarse *index.Graph, o graph.NodeID, qualified map[index.NodeID]bool) bool {
	for _, p := range g.Parents(o) {
		if !qualified[coarse.NodeOf(p).ID()] {
			return true
		}
	}
	return false
}

// propagate re-aligns components finer than the given level after a split:
// any finer-component node that now straddles multiple coarser nodes is
// split along the coarser partition, and local similarities are raised to
// the supernode's (a subset of a k-bisimilar extent is k-bisimilar), keeping
// Properties 3-5 of the M*(k)-index.
func (ms *MStar) propagate(level int, affected [][]graph.NodeID) {
	for j := level + 1; j < len(ms.comps); j++ {
		coarse, fine := ms.comps[j-1], ms.comps[j]
		var next [][]graph.NodeID
		for _, grp := range groupExtents(fine, affected) {
			w := grp.node
			// Partition w's extent by the coarser component's nodes.
			sub := groupByNode(coarse, w.Extent())
			if len(sub) == 1 {
				superK := sub[0].node.K()
				if superK > w.K() {
					fine.SetK(w, superK)
					next = append(next, w.Extent())
				}
				continue
			}
			pieces := make([][]graph.NodeID, len(sub))
			ks := make([]int, len(sub))
			for i, sg := range sub {
				pieces[i] = sg.members
				ks[i] = w.K()
				if sk := sg.node.K(); sk > ks[i] {
					ks[i] = sk
				}
			}
			for _, n := range fine.Split(w, pieces, ks) {
				next = append(next, n.Extent())
			}
		}
		if len(next) == 0 {
			return
		}
		affected = next
	}
}

// groupExtents returns the distinct live nodes of ig owning members of the
// given extents.
func groupExtents(ig *index.Graph, extents [][]graph.NodeID) []nodeGroup {
	seen := make(map[index.NodeID]bool)
	var out []nodeGroup
	for _, ext := range extents {
		for _, o := range ext {
			n := ig.NodeOf(o)
			if !seen[n.ID()] {
				seen[n.ID()] = true
				out = append(out, nodeGroup{node: n, members: n.Extent()})
			}
		}
	}
	return out
}

// promoteStar is PROMOTE*(v, level): REFINENODE* without relevant-data
// selectivity (all data nodes of v count as relevant), used by REFINE* to
// break false instances of the FUP. stop is checked repeatedly; once it
// reports the instance is gone, the recursion unwinds ("long jump").
// It returns true when the stop condition fired.
func (ms *MStar) promoteStar(level int, v *index.Node, stop func() bool) bool {
	if stop() {
		return true
	}
	if v.Dead() || v.K() >= level || level == 0 {
		return false
	}
	coarse := ms.comps[level-1]
	rep := v.Extent()[0]
	predAll := ms.data.Pred(v.Extent())
	for {
		if v.Dead() {
			return false
		}
		super := coarse.NodeOf(rep)
		var u *index.Node
		for _, p := range coarse.Parents(super) {
			if p.K() < level-1 && graph.Intersects(p.Extent(), predAll) {
				u = p
				break
			}
		}
		if u == nil {
			break
		}
		if ms.promoteStar(level-1, u, stop) {
			return true
		}
	}
	if v.Dead() {
		return false
	}
	// Split v's ancestor supernodes from istart upward, all data relevant.
	istart := level
	for i := 1; i <= level; i++ {
		if ms.comps[i].NodeOf(rep).K() < i {
			istart = i
			break
		}
	}
	for i := istart; i <= level; i++ {
		for _, grp := range groupByNode(ms.comps[i], v.Extent()) {
			if grp.node.K() >= i {
				continue
			}
			ms.splitNodeStar(i, grp.node, grp.members)
			if stop() {
				return true
			}
		}
	}
	return stop()
}
