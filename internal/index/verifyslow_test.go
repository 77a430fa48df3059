package index

import (
	"fmt"

	"mrx/internal/graph"
)

// This file is the reference verifier: the bodies of Verify, verifyCSR,
// verifyLabelBuckets and sortDedupFrozenIDs exactly as they stood before
// verification was made linear (quadratic insertion sort and nested
// transpose scan included), renamed with a Slow suffix. The differential
// tests hold the production Verify to it: accept iff the reference accepts.
// Do not optimize it.

// verifySlow is the reference for Frozen.Verify.
func (fz *Frozen) verifySlow() error {
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
	if err := fz.verifyCSRSlow(); err != nil {
		return err
	}
	if err := fz.verifyLabelBucketsSlow(); err != nil {
		return err
	}
	return fz.CheckP3()
}

// verifyCSRSlow re-derives the child adjacency from the data graph (P2) and
// checks both CSR halves against it: the stored child lists must match the
// derived ones exactly, and the parent CSR must be the exact transpose.
func (fz *Frozen) verifyCSRSlow() error {
	n := fz.NumNodes()
	var scratch []FrozenID
	for u := 0; u < n; u++ {
		scratch = scratch[:0]
		for _, o := range fz.Extent(FrozenID(u)) {
			for _, c := range fz.data.Children(o) {
				scratch = append(scratch, fz.nodeOf[c])
			}
		}
		scratch = sortDedupFrozenIDsSlow(scratch)
		got := fz.Children(FrozenID(u))
		if len(got) != len(scratch) {
			return fmt.Errorf("index: verify: node %d has %d child edges, data graph induces %d", u, len(got), len(scratch))
		}
		for i := range got {
			if got[i] != scratch[i] {
				return fmt.Errorf("index: verify: node %d child list diverges from data graph at %d", u, i)
			}
		}
	}
	// Transpose check: count parents per node, then verify each parent list
	// is ascending and that every child edge appears exactly once.
	counts := make([]int32, n)
	for _, c := range fz.children {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("index: verify: child edge to %d out of range", c)
		}
		counts[c]++
	}
	for v := 0; v < n; v++ {
		ps := fz.Parents(FrozenID(v))
		if int(counts[v]) != len(ps) {
			return fmt.Errorf("index: verify: node %d has %d parent edges, child CSR induces %d", v, len(ps), counts[v])
		}
		for i, p := range ps {
			if p < 0 || int(p) >= n {
				return fmt.Errorf("index: verify: parent edge to %d out of range", p)
			}
			if i > 0 && ps[i-1] >= p {
				return fmt.Errorf("index: verify: node %d parent list not strictly ascending", v)
			}
			found := false
			for _, c := range fz.Children(p) {
				if int(c) == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("index: verify: parent edge %d->%d has no child counterpart", p, v)
			}
		}
	}
	return nil
}

// verifyLabelBucketsSlow checks the per-label node ranges against the Labels
// array: ascending within a bucket, correct label, and full coverage.
func (fz *Frozen) verifyLabelBucketsSlow() error {
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

// sortDedupFrozenIDsSlow sorts ids ascending and removes duplicates in place.
func sortDedupFrozenIDsSlow(ids []FrozenID) []FrozenID {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	w := 0
	for i, v := range ids {
		if i > 0 && v == ids[w-1] {
			continue
		}
		ids[w] = v
		w++
	}
	return ids[:w]
}

// CheckP3 verifies the parent-similarity invariant P3 — every index edge
// u→v satisfies k(u) ≥ k(v) − 1 — over the CSR adjacency. It is the P3 step
// of the reference verifier; the production Verify checks P3 in its own
// pass over the CSR.
func (fz *Frozen) CheckP3() error {
	for u := 0; u < fz.NumNodes(); u++ {
		for _, c := range fz.Children(FrozenID(u)) {
			if fz.ks[u] < fz.ks[c]-1 {
				return p3Error(FrozenID(u), c, fz.ks)
			}
		}
	}
	return nil
}
