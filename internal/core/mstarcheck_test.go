package core

import (
	"slices"
	"strings"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/index"
)

// The M*(k) validator is the oracle for every property test, so check the
// oracle itself: each deliberately broken hierarchy must be caught with the
// right property name.
func TestMStarValidatorCatchesViolations(t *testing.T) {
	g := graph.PaperFigure7()

	build := func() *MStar {
		ms := NewMStar(g)
		ms.Support(mustParse("//b/a/c"))
		return ms
	}

	// P2: a component whose node claims k above the component's resolution.
	// The root node has no parents, so raising its k trips P2 rather than
	// the in-component parent constraint.
	ms := build()
	ms.Component(1).SetK(ms.Component(1).Root(), 2)
	if err := ms.Validate(false); err == nil || !strings.Contains(err.Error(), "P2") {
		t.Errorf("P2 violation not caught: %v", err)
	}

	// P3: a finer component that is not a refinement. Splitting a coarse
	// node without propagating leaves the finer components straddling.
	ms = build()
	i0 := ms.Component(0)
	cLabel, _ := g.LabelIDOf("c")
	cNode := i0.NodesWithLabel(cLabel)[0]
	i0.Split(cNode, [][]graph.NodeID{{4, 6}, {5, 7}}, []int{0, 0})
	if err := ms.Validate(false); err == nil || !strings.Contains(err.Error(), "P3") {
		t.Errorf("P3 violation not caught: %v", err)
	}

	// P4: subnode k more than one above its supernode's.
	ms = build()
	var c5 *index.Node
	ms.Component(2).ForEachNode(func(n *index.Node) {
		if n.Size() == 1 && n.Extent()[0] == 5 {
			c5 = n
		}
	})
	// c5 has k=2; its I1 supernode c[4 5] has k=1. Dropping the supernode to
	// k=0 makes the gap 2.
	super := ms.Supernode(c5, 1)
	ms.Component(1).SetK(super, 0)
	if err := ms.Validate(false); err == nil || !strings.Contains(err.Error(), "P") {
		t.Errorf("P4/P5 violation not caught: %v", err)
	}

	// Components out of order: I2 first exceeds I0's resolution and does
	// not nest into the I0 after it.
	ms = build()
	bad := []*index.Graph{ms.Component(2).Clone(), ms.Component(0).Clone()}
	if err := (&MStar{data: g, comps: bad}).Validate(false); err == nil || !strings.Contains(err.Error(), "P2") {
		t.Errorf("out-of-order components not caught: %v", err)
	}

	// A valid index still validates.
	if err := build().Validate(true); err != nil {
		t.Errorf("valid index rejected: %v", err)
	}
}

// Reassembling an M*(k) from loaded components rejects an empty list, a
// component over a foreign data graph and, when verifying, non-nested
// components, and round-trips a legitimate component list in both modes.
func TestMStarFromComponentsErrors(t *testing.T) {
	g := graph.PaperFigure7()
	ms := NewMStar(g)
	ms.Support(mustParse("//b/a/c"))
	fm := ms.Freeze()

	if _, err := AssembleFrozenMStar(g, nil, MStarOptions{}, true); err == nil {
		t.Error("empty component list accepted")
	}

	other := NewMStar(graph.PaperFigure1()).Freeze()
	if _, err := AssembleFrozenMStar(g, []*index.Frozen{other.Component(0)}, MStarOptions{}, true); err == nil {
		t.Error("component over different graph accepted")
	}

	// Components out of order violate the refinement nesting.
	if _, err := AssembleFrozenMStar(g, []*index.Frozen{fm.Component(2), fm.Component(0)}, MStarOptions{}, true); err == nil ||
		!strings.Contains(err.Error(), "spans two I0 extents") {
		t.Errorf("non-nested components accepted: %v", err)
	}

	// Even a trusted assembly reads no extent it has not bounds-checked:
	// I1 node 0 given an empty extent is an error, not a panic.
	a := fm.Component(1).Arrays()
	a.ExtentStart = slices.Clone(a.ExtentStart)
	a.ExtentStart[1] = a.ExtentStart[0]
	empty, err := index.FrozenFromArrays(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleFrozenMStar(g, []*index.Frozen{fm.Component(0), empty}, MStarOptions{}, false); err == nil ||
		!strings.Contains(err.Error(), "component I1 node 0 has an empty or out-of-range extent") {
		t.Errorf("trusted assembly over an empty extent: %v", err)
	}

	// The legitimate component list round-trips, verified or trusted.
	comps := make([]*index.Frozen, fm.NumComponents())
	for i := range comps {
		comps[i] = fm.Component(i)
	}
	for _, verify := range []bool{true, false} {
		got, err := AssembleFrozenMStar(g, comps, MStarOptions{}, verify)
		if err != nil {
			t.Fatalf("verify=%v: %v", verify, err)
		}
		if err := got.CheckAgainst(ms); err != nil {
			t.Errorf("verify=%v: reassembled index differs: %v", verify, err)
		}
	}
}
