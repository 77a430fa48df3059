package index

import "fmt"

// This file keeps Frozen.Verify as it stood when every component of a
// loaded M*(k) was checked against the data graph on its own: the bodies of
// Verify and verifyCSR verbatim, renamed with a Ref suffix (they still call
// the unchanged appendInducedChildren and verifyLabelBuckets). Together with
// the nesting check in chainref_test.go it is the oracle the verified load
// chain — VerifyShape per component, VerifyCSR on the finest and
// VerifyCSRThrough on the others — is held to: accept iff the reference
// accepts. Do not optimize it.

// verifyRef walks every array of the snapshot and checks the full structural
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
func (fz *Frozen) verifyRef() error {
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
	if err := fz.verifyCSRRef(); err != nil {
		return err
	}
	return fz.verifyLabelBuckets()
}

// verifyCSRRef checks both CSR halves and P3 in one pass over the child edges,
// in time linear in index plus data edges; offsets, ks and nodeOf must
// already be verified. Per node u the stored child list must be in range,
// strictly ascending, as long as the set the data graph induces (P2) and
// inside it — so equal to it. The parent CSR is checked by transposing with
// a cursor: edges u→c are walked in ascending u, so the next unmatched slot
// of c's parent list must hold u, and a list that ends up exactly consumed
// is c's parents in ascending order, nothing missing and nothing extra.
func (fz *Frozen) verifyCSRRef() error {
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
