package index

import (
	"fmt"

	"mrx/internal/graph"
)

// FrozenArrays is the complete flat-array state of one Frozen snapshot, in
// the exact layout Freeze produces. It exists so external storage layers can
// wire a Frozen over memory they own — package mmapstore maps a snapshot
// file and hands the typed views straight to FrozenFromArrays, serving
// queries with zero deserialization — and so writers can read the arrays
// back out (Arrays) without accessor-at-a-time copying.
//
// Invariants (what Freeze guarantees and Verify checks): Retired is strictly
// ascending; ExtentStart/ChildStart/ParentStart/LabelStart are monotone
// offset arrays starting at 0 and ending at the length of the array they
// index; extents are sorted, non-empty, label-homogeneous and partition the
// data nodes per NodeOf; adjacency lists are ascending and deduplicated;
// label buckets are ascending and agree with Labels.
type FrozenArrays struct {
	Retired []NodeID
	Ks      []int32
	Labels  []graph.LabelID

	ExtentStart []int32
	ExtentArena []graph.NodeID

	ChildStart  []int32
	Children    []FrozenID
	ParentStart []int32
	Parents     []FrozenID

	LabelStart []int32
	LabelNodes []FrozenID

	NodeOf []FrozenID
}

// Arrays returns the snapshot's backing arrays. The slices alias internal
// storage and must not be modified: a Frozen is immutable by contract.
func (fz *Frozen) Arrays() FrozenArrays {
	return FrozenArrays{
		Retired:     fz.retired,
		Ks:          fz.ks,
		Labels:      fz.labels,
		ExtentStart: fz.extentStart,
		ExtentArena: fz.extentArena,
		ChildStart:  fz.childStart,
		Children:    fz.children,
		ParentStart: fz.parentStart,
		Parents:     fz.parents,
		LabelStart:  fz.labelStart,
		LabelNodes:  fz.labelNodes,
		NodeOf:      fz.nodeOf,
	}
}

// FrozenFromArrays wires a Frozen directly over the given arrays without
// copying them — the zero-deserialization load path. Only O(1) shape
// consistency is checked here (array lengths against each other and against
// the data graph, offset-array boundary values), which is enough to bind the
// arrays together but NOT enough to make a hostile file safe to serve:
// interior offsets and IDs are trusted. Callers loading untrusted bytes must
// follow up with Verify, which walks everything.
func FrozenFromArrays(data *graph.Graph, a FrozenArrays) (*Frozen, error) {
	n := len(a.Retired)
	if len(a.Ks) != n || len(a.Labels) != n {
		return nil, fmt.Errorf("index: frozen arrays: %d retired, %d ks, %d labels", n, len(a.Ks), len(a.Labels))
	}
	if len(a.ExtentStart) != n+1 || len(a.ChildStart) != n+1 || len(a.ParentStart) != n+1 {
		return nil, fmt.Errorf("index: frozen arrays: offset arrays sized %d/%d/%d, want %d",
			len(a.ExtentStart), len(a.ChildStart), len(a.ParentStart), n+1)
	}
	if len(a.LabelStart) != data.NumLabels()+1 {
		return nil, fmt.Errorf("index: frozen arrays: %d label offsets for %d labels", len(a.LabelStart), data.NumLabels())
	}
	if len(a.LabelNodes) != n {
		return nil, fmt.Errorf("index: frozen arrays: %d label-bucket entries for %d nodes", len(a.LabelNodes), n)
	}
	if len(a.NodeOf) != data.NumNodes() {
		return nil, fmt.Errorf("index: frozen arrays: %d ownership entries for %d data nodes", len(a.NodeOf), data.NumNodes())
	}
	if len(a.ExtentArena) != data.NumNodes() {
		// Extents partition the data nodes, so the arena is exactly one entry
		// per data node.
		return nil, fmt.Errorf("index: frozen arrays: arena of %d for %d data nodes", len(a.ExtentArena), data.NumNodes())
	}
	if err := checkBounds("extent", a.ExtentStart, len(a.ExtentArena)); err != nil {
		return nil, err
	}
	if err := checkBounds("child", a.ChildStart, len(a.Children)); err != nil {
		return nil, err
	}
	if err := checkBounds("parent", a.ParentStart, len(a.Parents)); err != nil {
		return nil, err
	}
	if err := checkBounds("label", a.LabelStart, len(a.LabelNodes)); err != nil {
		return nil, err
	}
	if len(a.Children) != len(a.Parents) {
		return nil, fmt.Errorf("index: frozen arrays: %d child edges but %d parent edges", len(a.Children), len(a.Parents))
	}
	return &Frozen{
		data:        data,
		retired:     a.Retired,
		ks:          a.Ks,
		labels:      a.Labels,
		extentStart: a.ExtentStart,
		extentArena: a.ExtentArena,
		childStart:  a.ChildStart,
		children:    a.Children,
		parentStart: a.ParentStart,
		parents:     a.Parents,
		labelStart:  a.LabelStart,
		labelNodes:  a.LabelNodes,
		nodeOf:      a.NodeOf,
	}, nil
}

// checkBounds validates the O(1) boundary values of an offset array: it must
// start at 0 and end exactly at the indexed array's length. Interior
// monotonicity is Verify's job.
func checkBounds(kind string, start []int32, arenaLen int) error {
	if start[0] != 0 {
		return fmt.Errorf("index: frozen arrays: %s offsets start at %d, want 0", kind, start[0])
	}
	if int(start[len(start)-1]) != arenaLen {
		return fmt.Errorf("index: frozen arrays: %s offsets end at %d, array has %d", kind, start[len(start)-1], arenaLen)
	}
	return nil
}

// Verify walks every array of the snapshot and checks the full structural
// contract, so a Frozen wired over untrusted bytes (FrozenFromArrays over a
// mapped file) either satisfies exactly the invariants Freeze guarantees or
// is rejected before it can serve a query — no interior value can cause a
// panic, an out-of-range access, or a silently wrong answer afterwards:
//
//   - offset arrays are monotone nondecreasing;
//   - every k is nonnegative, every label in range, Retired strictly
//     ascending;
//   - extents are non-empty, strictly ascending, label-homogeneous and a
//     disjoint cover of the data nodes agreeing with NodeOf;
//   - the child CSR equals the adjacency induced by the data graph (P2),
//     and the parent CSR is its exact transpose;
//   - label buckets are ascending, agree with Labels, and cover every node;
//   - P3: every edge u→v has k(u) ≥ k(v) − 1.
//
// The walk is linear — O(index nodes + index edges + data nodes + data
// edges), nothing sorted, two scratch arrays of one int32 per index node —
// and reads only this snapshot and the data graph, so a loader may verify
// the components of one file concurrently.
func (fz *Frozen) Verify() error {
	n := fz.NumNodes()
	data := fz.data
	for _, s := range []struct {
		kind  string
		start []int32
	}{
		{"extent", fz.extentStart}, {"child", fz.childStart},
		{"parent", fz.parentStart}, {"label", fz.labelStart},
	} {
		for i := 1; i < len(s.start); i++ {
			if s.start[i] < s.start[i-1] {
				return fmt.Errorf("index: verify: %s offsets decrease at %d (%d -> %d)", s.kind, i, s.start[i-1], s.start[i])
			}
		}
	}
	for v := 0; v < n; v++ {
		if fz.ks[v] < 0 {
			return fmt.Errorf("index: verify: node %d has negative k %d", v, fz.ks[v])
		}
		if l := fz.labels[v]; l < 0 || int(l) >= data.NumLabels() {
			return fmt.Errorf("index: verify: node %d has label %d out of range", v, l)
		}
		if v > 0 && fz.retired[v] <= fz.retired[v-1] {
			return fmt.Errorf("index: verify: retired IDs not ascending at node %d", v)
		}
		ext := fz.Extent(FrozenID(v))
		if len(ext) == 0 {
			return fmt.Errorf("index: verify: node %d has empty extent", v)
		}
		for i, o := range ext {
			if o < 0 || int(o) >= data.NumNodes() {
				return fmt.Errorf("index: verify: node %d extent references data node %d out of range", v, o)
			}
			if i > 0 && ext[i-1] >= o {
				return fmt.Errorf("index: verify: node %d extent not strictly ascending", v)
			}
			if data.Label(o) != fz.labels[v] {
				return fmt.Errorf("index: verify: node %d extent mixes labels", v)
			}
			if fz.nodeOf[o] != FrozenID(v) {
				return fmt.Errorf("index: verify: nodeOf[%d]=%d, extent says %d", o, fz.nodeOf[o], v)
			}
		}
	}
	// The arena length equals NumNodes (checked at wiring) and every member
	// maps back through nodeOf, so extents are a disjoint cover iff every
	// nodeOf entry was visited — which the per-extent nodeOf check plus the
	// pigeonhole over the arena length already guarantees. What remains is
	// nodeOf entries pointing at nodes whose extent doesn't contain them:
	// caught above unless the entry is out of range entirely.
	for o, v := range fz.nodeOf {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("index: verify: nodeOf[%d]=%d out of range", o, v)
		}
	}
	if err := fz.verifyCSR(); err != nil {
		return err
	}
	return fz.verifyLabelBuckets()
}

// verifyCSR checks both CSR halves and P3 in one pass over the child edges,
// in time linear in index plus data edges; offsets, ks and nodeOf must
// already be verified. Per node u the stored child list must be in range,
// strictly ascending, as long as the set the data graph induces (P2) and
// inside it — so equal to it. The parent CSR is checked by transposing with
// a cursor: edges u→c are walked in ascending u, so the next unmatched slot
// of c's parent list must hold u, and a list that ends up exactly consumed
// is c's parents in ascending order, nothing missing and nothing extra.
func (fz *Frozen) verifyCSR() error {
	n := fz.NumNodes()
	stamp := make([]int32, n)
	matched := make([]int32, n) // parent-list entries of each node consumed so far
	var induced []FrozenID
	for u := 0; u < n; u++ {
		induced = fz.appendInducedChildren(induced[:0], FrozenID(u), stamp)
		stored := fz.Children(FrozenID(u))
		if len(stored) != len(induced) {
			return fmt.Errorf("index: verify: node %d has %d child edges, data graph induces %d", u, len(stored), len(induced))
		}
		for i, c := range stored {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("index: verify: child edge to %d out of range", c)
			}
			if i > 0 && stored[i-1] >= c {
				return fmt.Errorf("index: verify: node %d child list not strictly ascending", u)
			}
			if stamp[c] != int32(u)+1 {
				return fmt.Errorf("index: verify: child edge %d->%d is not induced by the data graph", u, c)
			}
			if fz.ks[u] < fz.ks[c]-1 {
				return p3Error(FrozenID(u), c, fz.ks)
			}
			at := fz.parentStart[c] + matched[c]
			if at >= fz.parentStart[c+1] || fz.parents[at] != FrozenID(u) {
				return fmt.Errorf("index: verify: child edge %d->%d has no parent counterpart in ascending order", u, c)
			}
			matched[c]++
		}
	}
	// No list was overrun, so a parent edge without a child counterpart shows
	// as a list not consumed to its end. (FrozenFromArrays wires only halves
	// of equal length, which already rules that out; Verify does not lean on
	// it.)
	for v := 0; v < n; v++ {
		if ps := fz.parentStart[v+1] - fz.parentStart[v]; matched[v] != ps {
			return fmt.Errorf("index: verify: node %d has %d parent edges, child CSR induces %d", v, ps, matched[v])
		}
	}
	return nil
}

// verifyLabelBuckets checks the per-label node ranges against the Labels
// array: ascending within a bucket, correct label, and full coverage.
func (fz *Frozen) verifyLabelBuckets() error {
	n := fz.NumNodes()
	total := 0
	for l := 0; l < fz.data.NumLabels(); l++ {
		bucket := fz.NodesWithLabel(graph.LabelID(l))
		total += len(bucket)
		for i, v := range bucket {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("index: verify: label %d bucket references node %d out of range", l, v)
			}
			if fz.labels[v] != graph.LabelID(l) {
				return fmt.Errorf("index: verify: label %d bucket contains node %d labeled %d", l, v, fz.labels[v])
			}
			if i > 0 && bucket[i-1] >= v {
				return fmt.Errorf("index: verify: label %d bucket not strictly ascending", l)
			}
		}
	}
	if total != n {
		return fmt.Errorf("index: verify: label buckets cover %d nodes, snapshot has %d", total, n)
	}
	return nil
}
