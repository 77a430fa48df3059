package core

import (
	"errors"
	"fmt"
	"runtime"

	"mrx/internal/graph"
	"mrx/internal/index"
)

// AssembleFrozenMStar reassembles a frozen M*(k) view from pre-built
// component snapshots — the zero-copy load path: package mmapstore wires
// each component directly over a mapped file and binds them here. The
// components must share the data graph.
//
// Assembly builds the subnode links between adjacent components. Without
// verify (a trusted reopen) it reads only the first extent member of each
// fine node and that member's coarse owner, bounds-checked, in one pass: a
// damaged file fails here with an error naming the component, never with a
// panic at query time.
//
// With verify it proves every component's edges, on up to GOMAXPROCS
// goroutines, and the components must already have passed
// index.Frozen.VerifyShape. Only the finest component Ik is checked
// against the data graph (VerifyCSR). For each adjacent pair, the pass that
// builds the links also checks the refinement nesting — every extent of
// I(i) lies inside one extent of I(i-1), which makes the owner map and the
// links exact — and then checks I(i-1)'s CSR through I(i)'s
// (VerifyCSRThrough): I(i-1)'s edges must be I(i)'s projected onto their
// supernodes. By induction from Ik down, every component's CSR is then the
// one the data graph induces (P2), at O(fine index nodes + fine index
// edges) per pair instead of O(data nodes + data edges) per component.
//
// Errors are resolved finest first: the finest failing check is reported.
// Every finer check passed, so the component it names really is damaged —
// a coarser component whose check merely read the damaged one is not
// blamed. Rejection does not depend on scheduling.
func AssembleFrozenMStar(g *graph.Graph, comps []*index.Frozen, opts MStarOptions, verify bool) (*FrozenMStar, error) {
	if len(comps) == 0 {
		return nil, errors.New("mstar: no frozen components")
	}
	for i, c := range comps {
		if c.Data() != g {
			return nil, fmt.Errorf("mstar: frozen component I%d built over a different data graph", i)
		}
	}
	links := make([]subLinks, len(comps)-1)
	if !verify {
		for i := range links {
			owner, err := loadOwners(comps[i], comps[i+1], i+1, false)
			if err != nil {
				return nil, err
			}
			links[i] = newSubLinks(owner, comps[i].NumNodes())
		}
		return &FrozenMStar{data: g, comps: comps, links: links, opts: opts}, nil
	}
	// Check t covers component last-t, so the checks run and are resolved
	// finest first, and the one over the data graph — the longest — starts
	// earliest.
	last := len(comps) - 1
	errs := make([]error, len(comps))
	parallelFor(len(comps), runtime.GOMAXPROCS(0), func(t int) {
		i := last - t
		if i == last {
			if err := comps[i].VerifyCSR(); err != nil {
				errs[t] = fmt.Errorf("mstar: component I%d: %w", i, err)
			}
			return
		}
		owner, err := loadOwners(comps[i], comps[i+1], i+1, true)
		if err != nil {
			errs[t] = err
			return
		}
		links[i] = newSubLinks(owner, comps[i].NumNodes())
		if err := comps[i].VerifyCSRThrough(comps[i+1], owner, links[i].start, links[i].subs); err != nil {
			errs[t] = fmt.Errorf("mstar: component I%d: %w", i, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &FrozenMStar{data: g, comps: comps, links: links, opts: opts}, nil
}

// loadOwners maps every node of fine = I(i) to its supernode in coarse =
// I(i-1) over loaded arrays: every index it reads is bounds-checked first.
// With nesting it reads every member of each fine extent and checks that
// they share one coarse owner.
func loadOwners(coarse, fine *index.Frozen, i int, nesting bool) ([]index.FrozenID, error) {
	fa, nodeOf := fine.Arrays(), coarse.Arrays().NodeOf
	badMember := func(v int, o graph.NodeID) error {
		if o < 0 || int(o) >= len(nodeOf) {
			return fmt.Errorf("mstar: component I%d node %d: extent holds data node %d of %d", i, v, o, len(nodeOf))
		}
		return fmt.Errorf("mstar: component I%d node %d spans two I%d extents", i, v, i-1)
	}
	owner := make([]index.FrozenID, fine.NumNodes())
	for v := range owner {
		lo, hi := fa.ExtentStart[v], fa.ExtentStart[v+1]
		if lo < 0 || hi > int32(len(fa.ExtentArena)) || lo >= hi {
			return nil, fmt.Errorf("mstar: component I%d node %d has an empty or out-of-range extent [%d,%d)", i, v, lo, hi)
		}
		ext := fa.ExtentArena[lo:hi]
		if ext[0] < 0 || int(ext[0]) >= len(nodeOf) {
			return nil, badMember(v, ext[0])
		}
		u := nodeOf[ext[0]]
		if u < 0 || int(u) >= coarse.NumNodes() {
			return nil, fmt.Errorf("mstar: component I%d node %d: supernode %d of %d in I%d", i, v, u, coarse.NumNodes(), i-1)
		}
		if nesting {
			for _, o := range ext[1:] {
				if o < 0 || int(o) >= len(nodeOf) || nodeOf[o] != u {
					return nil, badMember(v, o)
				}
			}
		}
		owner[v] = u
	}
	return owner, nil
}
