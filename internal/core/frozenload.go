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
// panic at query time. With verify it also checks the refinement nesting
// that makes the links exact — every extent of I(i) lies inside one extent
// of I(i-1), O(total extent size) — with the pairs on up to GOMAXPROCS
// goroutines; this is the structural half of P4/P5 that a loader can check
// without materializing mutable graphs. Per-component structural invariants
// are index.Frozen.Verify's job and must hold before a verified assembly.
func AssembleFrozenMStar(g *graph.Graph, comps []*index.Frozen, opts MStarOptions, verify bool) (*FrozenMStar, error) {
	if len(comps) == 0 {
		return nil, errors.New("mstar: no frozen components")
	}
	for i, c := range comps {
		if c.Data() != g {
			return nil, fmt.Errorf("mstar: frozen component I%d built over a different data graph", i)
		}
	}
	workers := 1 // a trusted pass reads one member per fine node
	if verify {
		workers = runtime.GOMAXPROCS(0)
	}
	links := make([]subLinks, len(comps)-1)
	errs := make([]error, len(links))
	parallelFor(len(links), workers, func(i int) {
		links[i], errs[i] = linkLoaded(comps[i], comps[i+1], i+1, verify)
	})
	// The lowest failing pair is what a sequential pass would report, so
	// rejection does not depend on scheduling.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &FrozenMStar{data: g, comps: comps, links: links, opts: opts}, nil
}

// linkLoaded is linkFrozen over loaded arrays, I(i-1) → I(i): every index it
// reads is bounds-checked first. With nesting it reads every member of each
// fine extent and checks that they share one coarse owner.
func linkLoaded(coarse, fine *index.Frozen, i int, nesting bool) (subLinks, error) {
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
			return subLinks{}, fmt.Errorf("mstar: component I%d node %d has an empty or out-of-range extent [%d,%d)", i, v, lo, hi)
		}
		ext := fa.ExtentArena[lo:hi]
		if ext[0] < 0 || int(ext[0]) >= len(nodeOf) {
			return subLinks{}, badMember(v, ext[0])
		}
		u := nodeOf[ext[0]]
		if u < 0 || int(u) >= coarse.NumNodes() {
			return subLinks{}, fmt.Errorf("mstar: component I%d node %d: supernode %d of %d in I%d", i, v, u, coarse.NumNodes(), i-1)
		}
		if nesting {
			for _, o := range ext[1:] {
				if o < 0 || int(o) >= len(nodeOf) || nodeOf[o] != u {
					return subLinks{}, badMember(v, o)
				}
			}
		}
		owner[v] = u
	}
	return newSubLinks(owner, coarse.NumNodes()), nil
}
