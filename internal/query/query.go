// Package query evaluates simple path expressions over data graphs (ground
// truth) and over structural index graphs (with validation), using the cost
// model of the paper: the cost of a query is the number of index nodes
// visited while traversing the index graph plus the number of data nodes
// visited while validating candidate answers against the data graph.
// Data nodes inside the extents of matched index nodes are not counted
// unless validation actually visits them.
package query

import (
	"slices"
	"sort"
	"sync"

	"mrx/internal/graph"
	"mrx/internal/index"
	"mrx/internal/pathexpr"
)

// Cost is the paper's two-part query cost.
type Cost struct {
	IndexNodes int // index nodes visited during index-graph traversal
	DataNodes  int // data nodes visited during validation
}

// Total returns the combined cost.
func (c Cost) Total() int { return c.IndexNodes + c.DataNodes }

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.IndexNodes += o.IndexNodes
	c.DataNodes += o.DataNodes
}

// DataIndex caches per-label node buckets of a data graph so that ground-
// truth evaluation does not rescan the node table for every query. A
// DataIndex is safe for concurrent use once built; Engine shares one across
// all serving goroutines.
type DataIndex struct {
	g       *graph.Graph
	byLabel [][]graph.NodeID
	allOnce sync.Once
	all     []graph.NodeID
}

// NewDataIndex builds the label buckets for g as windows of one node array.
func NewDataIndex(g *graph.Graph) *DataIndex {
	d := &DataIndex{g: g, byLabel: make([][]graph.NodeID, g.NumLabels())}
	nodes := make([]graph.NodeID, g.NumNodes())
	at := 0
	for l, count := range g.LabelCounts() {
		d.byLabel[l] = nodes[at : at : at+count]
		at += count
	}
	for v := range nodes {
		l := g.Label(graph.NodeID(v))
		d.byLabel[l] = append(d.byLabel[l], graph.NodeID(v))
	}
	return d
}

// Graph returns the underlying data graph.
func (d *DataIndex) Graph() *graph.Graph { return d.g }

func (d *DataIndex) nodesMatching(s pathexpr.Step) []graph.NodeID {
	if s.Wildcard {
		d.allOnce.Do(func() {
			d.all = make([]graph.NodeID, d.g.NumNodes())
			for v := range d.all {
				d.all[v] = graph.NodeID(v)
			}
		})
		return d.all
	}
	l, ok := d.g.LabelIDOf(s.Label)
	if !ok {
		return nil
	}
	return d.byLabel[l]
}

// Eval computes the exact target set of e on the data graph: every data node
// that terminates a node-path instance of e. The result is sorted.
func (d *DataIndex) Eval(e *pathexpr.Expr) []graph.NodeID {
	g := d.g
	var frontier []graph.NodeID
	if e.Rooted {
		for _, c := range g.Children(g.Root()) {
			if e.Steps[0].Matches(g.NodeLabelName(c)) {
				frontier = append(frontier, c)
			}
		}
		frontier = dedupeIDs(frontier)
	} else {
		frontier = append([]graph.NodeID(nil), d.nodesMatching(e.Steps[0])...)
	}
	seen := make(map[graph.NodeID]bool)
	for i := 1; i < len(e.Steps); i++ {
		clear(seen)
		var next []graph.NodeID
		if e.Steps[i].Descendant {
			// Descendant axis: all nodes reachable through one or more
			// edges, filtered by label.
			visited := make(map[graph.NodeID]bool)
			queue := append([]graph.NodeID(nil), frontier...)
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, c := range g.Children(v) {
					if visited[c] {
						continue
					}
					visited[c] = true
					queue = append(queue, c)
					if e.Steps[i].Matches(g.NodeLabelName(c)) {
						next = append(next, c)
					}
				}
			}
			frontier = dedupeIDs(next)
			if len(frontier) == 0 {
				break
			}
			continue
		}
		for _, v := range frontier {
			for _, c := range g.Children(v) {
				if !seen[c] && e.Steps[i].Matches(g.NodeLabelName(c)) {
					seen[c] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	slices.Sort(frontier)
	return frontier
}

func dedupeIDs(s []graph.NodeID) []graph.NodeID {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// Validator performs backward validation of candidate answers for one
// expression: Matches(o) decides whether some node-path instance of the
// expression ends at o, by walking parent edges backward with memoization.
// Visited() reports the number of data-node visits performed, the paper's
// validation cost (a visit is the first evaluation of a (node, step) state;
// memoized re-checks are free).
type Validator struct {
	g       *graph.Graph
	e       *pathexpr.Expr
	memo    map[validState]bool
	visited int
}

type validState struct {
	node graph.NodeID
	step int32
}

// reach reports whether some ancestor of v (one or more edges up) matches
// steps[0..step]; used for descendant-axis steps. Each call walks the
// ancestor cone breadth-first with its own visited set (cycles through
// reference edges terminate), memoized per (node, step).
func (va *Validator) reach(v graph.NodeID, step int) bool {
	key := validState{v, int32(step)<<1 | 1<<30}
	if r, ok := va.memo[key]; ok {
		return r
	}
	// v itself is deliberately not pre-marked visited: when a cycle leads
	// back to it, v is its own strict ancestor and must be match-tested like
	// any other node the BFS reaches.
	visited := make(map[graph.NodeID]bool)
	queue := []graph.NodeID{v}
	res := false
	for len(queue) > 0 && !res {
		u := queue[0]
		queue = queue[1:]
		for _, p := range va.g.Parents(u) {
			if visited[p] {
				continue
			}
			visited[p] = true
			va.visited++
			if va.match(p, step) {
				res = true
				break
			}
			queue = append(queue, p)
		}
	}
	va.memo[key] = res
	return res
}

// NewValidator prepares a validator for e over g.
func NewValidator(g *graph.Graph, e *pathexpr.Expr) *Validator {
	return &Validator{g: g, e: e, memo: make(map[validState]bool)}
}

// Matches reports whether the expression has an instance ending at o.
func (va *Validator) Matches(o graph.NodeID) bool {
	return va.match(o, len(va.e.Steps)-1)
}

// Visited returns the cumulative number of data nodes visited.
func (va *Validator) Visited() int { return va.visited }

func (va *Validator) match(v graph.NodeID, step int) bool {
	key := validState{v, int32(step)}
	if r, ok := va.memo[key]; ok {
		return r
	}
	va.visited++
	res := false
	if va.e.Steps[step].Matches(va.g.NodeLabelName(v)) {
		if step == 0 {
			if va.e.Rooted {
				for _, p := range va.g.Parents(v) {
					if p == va.g.Root() {
						res = true
						break
					}
				}
			} else {
				res = true
			}
		} else if va.e.Steps[step].Descendant {
			res = va.reach(v, step-1)
		} else {
			for _, p := range va.g.Parents(v) {
				if va.match(p, step-1) {
					res = true
					break
				}
			}
		}
	}
	va.memo[key] = res
	return res
}

// Result is the outcome of evaluating an expression on an index graph.
type Result struct {
	// Targets are the index nodes matched by the expression, in ID order.
	// Nil when the query was served from a frozen snapshot (TraverseFrozen
	// returns the frozen targets).
	Targets []*index.Node
	// Answer is the validated data-node answer, sorted. Nil when the query
	// was evaluated with ValidateOpts.CountOnly.
	Answer []graph.NodeID
	// Count is the answer's cardinality. The frozen read path sets it in
	// both modes, from the extents alone under CountOnly; elsewhere it may
	// be zero, and len(Answer) is the count.
	Count int
	// Cost is the query cost under the paper's metric.
	Cost Cost
	// Precise is true when every matched index node had sufficient local
	// similarity, so no validation was needed.
	Precise bool
}

// EvalIndex evaluates e on the index graph ig: it traverses the index graph
// to find the target index nodes, then returns extents directly for nodes
// with k ≥ RequiredK(e) and validates the extents of under-refined nodes
// against the data graph, counting costs per the paper's metric. Validation
// is sequential; use EvalIndexOpts for a bounded worker pool or
// cancellation.
func EvalIndex(ig *index.Graph, e *pathexpr.Expr) Result {
	return EvalIndexOpts(ig, e, ValidateOpts{})
}

// TargetNodes evaluates only the index-graph traversal and returns the
// matched index nodes without validating or counting costs. Refinement
// algorithms use it to locate nodes reachable by a FUP.
func TargetNodes(ig *index.Graph, e *pathexpr.Expr) []*index.Node {
	var c Cost
	return traverseIndex(ig, e, &c)
}

func traverseIndex(ig *index.Graph, e *pathexpr.Expr, cost *Cost) []*index.Node {
	var frontier []*index.Node
	if e.Rooted {
		root := ig.Root()
		cost.IndexNodes++
		for _, c := range ig.Children(root) {
			cost.IndexNodes++
			if e.Steps[0].Matches(ig.Data().LabelName(c.Label())) {
				frontier = append(frontier, c)
			}
		}
	} else if e.Steps[0].Wildcard {
		ig.ForEachNode(func(n *index.Node) { frontier = append(frontier, n) })
		cost.IndexNodes += len(frontier)
	} else {
		if l, ok := ig.Data().LabelIDOf(e.Steps[0].Label); ok {
			frontier = ig.NodesWithLabel(l)
		}
		cost.IndexNodes += len(frontier)
	}
	for i := 1; i < len(e.Steps); i++ {
		seen := make(map[index.NodeID]bool)
		var next []*index.Node
		if e.Steps[i].Descendant {
			// Descendant axis: closure over index edges, filtered by label.
			visited := make(map[index.NodeID]bool)
			queue := append([]*index.Node(nil), frontier...)
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, c := range ig.Children(v) {
					if visited[c.ID()] {
						continue
					}
					visited[c.ID()] = true
					cost.IndexNodes++
					queue = append(queue, c)
					if e.Steps[i].Matches(ig.Data().LabelName(c.Label())) {
						next = append(next, c)
					}
				}
			}
			frontier = next
			if len(frontier) == 0 {
				break
			}
			continue
		}
		for _, v := range frontier {
			for _, c := range ig.Children(v) {
				cost.IndexNodes++
				if !seen[c.ID()] && e.Steps[i].Matches(ig.Data().LabelName(c.Label())) {
					seen[c.ID()] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].ID() < frontier[j].ID() })
	return frontier
}
