// Package gtest provides deterministic random data graphs and workloads for
// tests, property-based checks, and the differential oracle (package
// difftest) across the repository.
package gtest

import (
	"fmt"
	"math"
	"math/rand"

	"mrx/internal/graph"
)

// Shape selects the edge structure of a generated graph.
type Shape int

const (
	// Cyclic adds reference edges in any direction, so back edges can create
	// cycles, as ID/IDREF edges do in real XML. This is the default and
	// matches the historical behavior of Random.
	Cyclic Shape = iota
	// Tree generates no reference edges: the graph is exactly the spanning
	// tree.
	Tree
	// DAG restricts reference edges to point forward (to higher node IDs),
	// yielding shared substructure without cycles.
	DAG
)

func (s Shape) String() string {
	switch s {
	case Tree:
		return "tree"
	case DAG:
		return "dag"
	default:
		return "cyclic"
	}
}

// Options configures New. The zero value (after clamping Nodes and Labels to
// at least 1) generates a single-node graph; Random and RandomShallow are
// thin wrappers that preserve their historical output for a given seed.
type Options struct {
	// Nodes is the number of nodes including the root (min 1).
	Nodes int
	// Labels is the approximate number of distinct non-root labels (min 1);
	// labels are named l0..l<Labels-1>.
	Labels int
	// RefProb is the per-node probability of one extra reference edge.
	RefProb float64
	// Shape selects tree / DAG / cyclic structure (default Cyclic).
	Shape Shape
	// Skew biases label choice toward low label IDs with Zipf-like weights
	// 1/(i+1)^Skew; 0 draws labels uniformly.
	Skew float64
	// ShallowBias biases parent choice toward low IDs, generating wide,
	// shallow trees with heavy label reuse (stresses index splitting).
	ShallowBias bool
	// Components is the number of weakly-connected components to generate
	// (min 1). With the default 1 the generator is bit-identical to earlier
	// releases. Higher values grow a forest: node 0 roots the first
	// component and each further component gets its own parentless root;
	// tree and reference edges never cross components. Multi-component
	// graphs exercise the sharded serving path (package shard).
	Components int
}

// New generates a random rooted data graph from o. Every non-root node gets
// a tree edge from an earlier node, so everything is reachable from the
// root. The result is deterministic for a given (seed, Options) pair.
func New(seed int64, o Options) *graph.Graph {
	if o.Nodes < 1 {
		o.Nodes = 1
	}
	if o.Labels < 1 {
		o.Labels = 1
	}
	rng := rand.New(rand.NewSource(seed))
	labelOf := labelPicker(rng, o.Labels, o.Skew)
	if o.Components > 1 {
		return freeze(forestBuilder(rng, labelOf, o))
	}
	b := graph.NewBuilder()
	b.AddNode("root")
	for v := 1; v < o.Nodes; v++ {
		b.AddNode(fmt.Sprintf("l%d", labelOf()))
		parent := graph.NodeID(rng.Intn(v))
		if o.ShallowBias && parent > 0 && rng.Intn(2) == 0 {
			parent = graph.NodeID(rng.Intn(int(parent)))
		}
		b.AddEdge(parent, graph.NodeID(v), graph.TreeEdge)
	}
	if o.Shape != Tree {
		n := o.Nodes
		for v := 1; v < n; v++ {
			if rng.Float64() >= o.RefProb {
				continue
			}
			var to graph.NodeID
			switch o.Shape {
			case DAG:
				if v >= n-1 {
					continue
				}
				to = graph.NodeID(v + 1 + rng.Intn(n-v-1))
			default: // Cyclic
				to = graph.NodeID(1 + rng.Intn(n-1))
			}
			if to != graph.NodeID(v) {
				b.AddEdge(graph.NodeID(v), to, graph.RefEdge)
			}
		}
	}
	return freeze(b)
}

// freeze finalizes a generated builder; every generator adds only in-range
// nodes and edges, so failure is a generator bug, not a data condition.
func freeze(b *graph.Builder) *graph.Graph {
	g, err := b.Freeze()
	if err != nil {
		//mrlint:allow nopanic generator adds only in-range nodes and edges
		panic(err)
	}
	return g
}

// forestBuilder generates a graph with o.Components weakly-connected
// components. Node 0 is the root of the first component; every further
// component starts at its own parentless root node. All edges — tree and
// reference — stay inside one component, so the components are exactly the
// weak components graph.WeakComponents reports.
func forestBuilder(rng *rand.Rand, labelOf func() int, o Options) *graph.Builder {
	c := o.Components
	if c > o.Nodes {
		c = o.Nodes
	}
	b := graph.NewBuilder()
	comp := make([]int, o.Nodes)         // node -> component
	members := make([][]graph.NodeID, c) // component -> nodes, in creation order
	for v := 0; v < o.Nodes; v++ {
		var ci int
		switch {
		case v == 0:
			b.AddNode("root")
		case v < c:
			// A fresh component root; labeled like any interior node so
			// label-based routing cannot cheat off a magic root label.
			b.AddNode(fmt.Sprintf("l%d", labelOf()))
			ci = v
		default:
			b.AddNode(fmt.Sprintf("l%d", labelOf()))
			ci = rng.Intn(c)
			own := members[ci]
			parent := own[rng.Intn(len(own))]
			if o.ShallowBias && len(own) > 1 && rng.Intn(2) == 0 {
				parent = own[rng.Intn(len(own)/2+1)]
			}
			b.AddEdge(parent, graph.NodeID(v), graph.TreeEdge)
		}
		comp[v] = ci
		members[ci] = append(members[ci], graph.NodeID(v))
	}
	if o.Shape != Tree {
		for v := 1; v < o.Nodes; v++ {
			if rng.Float64() >= o.RefProb {
				continue
			}
			own := members[comp[v]]
			if len(own) < 2 {
				continue
			}
			to := own[rng.Intn(len(own))]
			if o.Shape == DAG && to <= graph.NodeID(v) {
				continue // forward-only within the component
			}
			// Never target node 0 (Builder keeps the global root entry-only)
			// or self.
			if to != graph.NodeID(v) && to != 0 {
				b.AddEdge(graph.NodeID(v), to, graph.RefEdge)
			}
		}
	}
	return b
}

// labelPicker returns a deterministic label chooser. With zero skew it draws
// rng.Intn(n) directly, keeping the draw sequence — and therefore every
// graph generated by the historical Random/RandomShallow signatures —
// bit-identical to earlier releases.
func labelPicker(rng *rand.Rand, n int, skew float64) func() int {
	if skew <= 0 {
		return func() int { return rng.Intn(n) }
	}
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), skew)
		cum[i] = total
	}
	return func() int {
		x := rng.Float64() * total
		for i, c := range cum {
			if x <= c {
				return i
			}
		}
		return n - 1
	}
}

// Random generates a random rooted data graph with n nodes and about
// nLabels distinct labels; reference edges are added with probability
// refProb per node and may point backwards, creating cycles. It is
// New(seed, Options{Nodes: n, Labels: nLabels, RefProb: refProb}).
func Random(seed int64, n, nLabels int, refProb float64) *graph.Graph {
	return New(seed, Options{Nodes: n, Labels: nLabels, RefProb: refProb})
}

// RandomShallow generates a random tree biased toward wide, shallow shapes
// with heavy label reuse, which stresses index splitting (many nodes share
// labels but differ structurally).
func RandomShallow(seed int64, n, nLabels int) *graph.Graph {
	return New(seed, Options{Nodes: n, Labels: nLabels, Shape: Tree, ShallowBias: true})
}
