package graph

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refFreeze is Builder.Freeze as it was before the shared CSR constructor:
// a reflection sort of every edge and a per-edge fill of both adjacency
// directions. It is the oracle TestFreezeMatchesReference compares against.
func refFreeze(b *Builder) (*Graph, error) {
	if b.frozen {
		return nil, errors.New("graph: builder already frozen")
	}
	n := len(b.nodeLbl)
	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.To == 0 {
			return nil, fmt.Errorf("graph: edge %d->0 targets the root", e.From)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.From)
		}
	}
	b.frozen = true

	// Sort edges by (From, To) for deterministic CSR layout; keep duplicates
	// out (parallel edges add nothing to bisimilarity or path semantics).
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].From != b.edges[j].From {
			return b.edges[i].From < b.edges[j].From
		}
		if b.edges[i].To != b.edges[j].To {
			return b.edges[i].To < b.edges[j].To
		}
		return b.edges[i].Kind < b.edges[j].Kind
	})
	edges := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e.From == b.edges[i-1].From && e.To == b.edges[i-1].To {
			continue
		}
		edges = append(edges, e)
	}

	g := &Graph{
		labels:    b.labels,
		labelIDs:  b.labelIDs,
		nodeLabel: b.nodeLbl,
		numEdges:  len(edges),
	}

	g.childStart = make([]int32, n+1)
	g.parentStart = make([]int32, n+1)
	for _, e := range edges {
		g.childStart[e.From+1]++
		g.parentStart[e.To+1]++
		if e.Kind == RefEdge {
			g.numRef++
		}
	}
	for i := 0; i < n; i++ {
		g.childStart[i+1] += g.childStart[i]
		g.parentStart[i+1] += g.parentStart[i]
	}
	g.children = make([]NodeID, len(edges))
	g.childKind = make([]EdgeKind, len(edges))
	g.parents = make([]NodeID, len(edges))
	cpos := make([]int32, n)
	ppos := make([]int32, n)
	for _, e := range edges {
		ci := g.childStart[e.From] + cpos[e.From]
		g.children[ci] = e.To
		g.childKind[ci] = e.Kind
		cpos[e.From]++
		pi := g.parentStart[e.To] + ppos[e.To]
		g.parents[pi] = e.From
		ppos[e.To]++
	}
	return g, nil
}

// sameGraph reports whether a and b are equal field by field: the label
// table and its index, node labels, both CSR directions, edge kinds and the
// edge counters.
func sameGraph(a, b *Graph) bool {
	return slices.Equal(a.labels, b.labels) && maps.Equal(a.labelIDs, b.labelIDs) &&
		slices.Equal(a.nodeLabel, b.nodeLabel) &&
		slices.Equal(a.childStart, b.childStart) && slices.Equal(a.children, b.children) &&
		slices.Equal(a.childKind, b.childKind) &&
		slices.Equal(a.parentStart, b.parentStart) && slices.Equal(a.parents, b.parents) &&
		a.numEdges == b.numEdges && a.numRef == b.numRef
}

// Freeze must build exactly what the reference builds — and fail exactly
// when it fails — on random edge lists: shuffled or already sorted,
// duplicated with both kinds, and with the occasional edge into the root,
// self-loop or out-of-range endpoint.
func TestFreezeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(30)
		labels := make([]string, n)
		for v := range labels {
			labels[v] = fmt.Sprintf("l%d", rng.Intn(5))
		}
		var edges []Edge
		for i := rng.Intn(3 * n); i > 0; i-- {
			e := Edge{From: NodeID(rng.Intn(n)), To: NodeID(1 + rng.Intn(max(n-1, 1))), Kind: EdgeKind(rng.Intn(2))}
			if e.From == e.To || int(e.To) >= n {
				if trial%4 != 0 {
					continue // most trials stay valid
				}
			}
			edges = append(edges, e)
			if rng.Intn(5) == 0 {
				edges = append(edges, Edge{From: e.From, To: e.To, Kind: 1 - e.Kind})
			}
		}
		if trial%3 == 0 {
			slices.SortFunc(edges, func(a, b Edge) int {
				return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Kind, b.Kind))
			})
		}
		if trial%10 == 0 && n > 1 {
			edges = append(edges, Edge{From: NodeID(n - 1), To: 0})
		}
		build := func() *Builder {
			b := NewBuilder()
			b.Label("unused")
			for _, l := range labels {
				b.AddNode(l)
			}
			for _, e := range edges {
				b.AddEdge(e.From, e.To, e.Kind)
			}
			return b
		}
		got, gerr := build().Freeze()
		want, werr := refFreeze(build())
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("trial %d: Freeze err %v, reference err %v", trial, gerr, werr)
		}
		if gerr == nil && !sameGraph(got, want) {
			t.Fatalf("trial %d: Freeze and reference disagree on %v", trial, edges)
		}
	}
}
