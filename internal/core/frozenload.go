package core

import (
	"errors"
	"fmt"

	"mrx/internal/graph"
	"mrx/internal/index"
)

// AssembleFrozenMStar reassembles a frozen M*(k) view from pre-built
// component snapshots — the zero-copy load path: package mmapstore wires
// each component directly over a mapped file and binds them here. The
// components must share the data graph; VerifyNesting (cheap, O(total
// extent size)) checks the multiresolution structure that relates them.
// Per-component structural invariants are index.Frozen.Verify's job —
// loaders of untrusted bytes run both, trusted reopens run neither.
func AssembleFrozenMStar(g *graph.Graph, comps []*index.Frozen, opts MStarOptions) (*FrozenMStar, error) {
	if len(comps) == 0 {
		return nil, errors.New("mstar: no frozen components")
	}
	for i, c := range comps {
		if c.Data() != g {
			return nil, fmt.Errorf("mstar: frozen component I%d built over a different data graph", i)
		}
	}
	return &FrozenMStar{data: g, comps: comps, opts: opts}, nil
}

// VerifyNesting checks the refinement relation between consecutive
// components: every extent of the finer component I(i) must lie entirely
// inside one extent of the coarser I(i-1) — equivalently, all data nodes
// owned by one fine node share a coarse owner. Together with each
// component's own Verify this is the structural half of P4/P5 that a loader
// can check without materializing mutable graphs.
func (fm *FrozenMStar) VerifyNesting() error {
	for i := 1; i < len(fm.comps); i++ {
		if err := fm.VerifyNestingAt(i); err != nil {
			return err
		}
	}
	return nil
}

// VerifyNestingAt is VerifyNesting for the one pair I(i-1), I(i), with
// 1 ≤ i < NumComponents. Pairs read nothing but their own two components,
// so a loader may check them concurrently.
func (fm *FrozenMStar) VerifyNestingAt(i int) error {
	coarse, fine := fm.comps[i-1], fm.comps[i]
	for v := 0; v < fine.NumNodes(); v++ {
		ext := fine.Extent(index.FrozenID(v))
		if len(ext) == 0 {
			return fmt.Errorf("mstar: component I%d node %d has empty extent", i, v)
		}
		owner := coarse.NodeOf(ext[0])
		for _, o := range ext[1:] {
			if coarse.NodeOf(o) != owner {
				return fmt.Errorf("mstar: component I%d node %d spans two I%d extents", i, v, i-1)
			}
		}
	}
	return nil
}
