package index

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/partition"
)

func TestFrozenArraysRoundTrip(t *testing.T) {
	g := gtest.Random(7, 60, 4, 0.2)
	// A refined partition gives the snapshot interesting structure.
	ig := FromPartition(g, partition.KBisim(g, 2), func(partition.BlockID) int { return 2 })
	fz := freezeChecked(t, ig)
	if err := fz.Verify(); err != nil {
		t.Fatalf("Verify on a freshly frozen snapshot: %v", err)
	}
	got, err := FrozenFromArrays(g, fz.Arrays())
	if err != nil {
		t.Fatalf("FrozenFromArrays: %v", err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify after array round-trip: %v", err)
	}
	if err := got.CheckAgainst(ig); err != nil {
		t.Fatalf("round-tripped snapshot diverges from source: %v", err)
	}
	if err := got.CheckP3(); err != nil {
		t.Fatalf("CheckP3: %v", err)
	}
}

func TestFrozenFromArraysRejectsShapeErrors(t *testing.T) {
	g := graph.PaperFigure1()
	fz := freezeChecked(t, a0(g))
	base := fz.Arrays()

	cases := []struct {
		name string
		mut  func(a FrozenArrays) FrozenArrays
		want string
	}{
		{"short ks", func(a FrozenArrays) FrozenArrays { a.Ks = a.Ks[:len(a.Ks)-1]; return a }, "ks"},
		{"short offsets", func(a FrozenArrays) FrozenArrays { a.ExtentStart = a.ExtentStart[:len(a.ExtentStart)-1]; return a }, "offset arrays"},
		{"bad start", func(a FrozenArrays) FrozenArrays {
			s := append([]int32(nil), a.ChildStart...)
			s[0] = 1
			a.ChildStart = s
			return a
		}, "start at 1"},
		{"bad end", func(a FrozenArrays) FrozenArrays {
			s := append([]int32(nil), a.ParentStart...)
			s[len(s)-1]++
			a.ParentStart = s
			return a
		}, "offsets end"},
		{"wrong nodeOf", func(a FrozenArrays) FrozenArrays { a.NodeOf = a.NodeOf[:len(a.NodeOf)-1]; return a }, "ownership"},
		{"wrong label buckets", func(a FrozenArrays) FrozenArrays { a.LabelNodes = a.LabelNodes[:len(a.LabelNodes)-1]; return a }, "label"},
	}
	for _, tc := range cases {
		if _, err := FrozenFromArrays(g, tc.mut(base)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// cloneArrays deep-copies all 12 arrays, so a test can corrupt its copy in
// place without touching the snapshot the arrays came from.
func cloneArrays(a FrozenArrays) FrozenArrays {
	return FrozenArrays{
		Retired:     slices.Clone(a.Retired),
		Ks:          slices.Clone(a.Ks),
		Labels:      slices.Clone(a.Labels),
		ExtentStart: slices.Clone(a.ExtentStart),
		ExtentArena: slices.Clone(a.ExtentArena),
		ChildStart:  slices.Clone(a.ChildStart),
		Children:    slices.Clone(a.Children),
		ParentStart: slices.Clone(a.ParentStart),
		Parents:     slices.Clone(a.Parents),
		LabelStart:  slices.Clone(a.LabelStart),
		LabelNodes:  slices.Clone(a.LabelNodes),
		NodeOf:      slices.Clone(a.NodeOf),
	}
}

// TestVerifyRejectsCorruption breaks one bullet of Verify's contract per
// case. No case can pass vacuously: a mutation that finds no place to apply
// fails the test, every mutation must change the arrays, the O(1) shape
// check must let it through (so it is Verify that is tested), and Verify's
// error must name the check that was meant to fire.
func TestVerifyRejectsCorruption(t *testing.T) {
	g := gtest.Random(11, 40, 3, 0.2)
	ig := FromPartition(g, partition.KBisim(g, 1), func(partition.BlockID) int { return 1 })
	fz := freezeChecked(t, ig)
	pristine := fz.Arrays()
	n := fz.NumNodes()

	// first returns the first index node satisfying ok.
	first := func(t *testing.T, what string, ok func(v FrozenID) bool) FrozenID {
		t.Helper()
		for v := 0; v < n; v++ {
			if ok(FrozenID(v)) {
				return FrozenID(v)
			}
		}
		t.Fatalf("test graph has no %s", what)
		return -1
	}
	// singletonAndPeer returns a node with a one-element extent and another
	// node whose label equals (or differs from) it.
	singletonAndPeer := func(t *testing.T, sameLabel bool) (v, w FrozenID) {
		t.Helper()
		v = first(t, "singleton extent with a peer", func(v FrozenID) bool {
			if fz.Size(v) != 1 {
				return false
			}
			for x := 0; x < n; x++ {
				if FrozenID(x) != v && (fz.Label(FrozenID(x)) == fz.Label(v)) == sameLabel {
					w = FrozenID(x)
					return true
				}
			}
			return false
		})
		return v, w
	}
	decrease := func(s []int32) {
		if len(s) < 3 {
			t.Fatalf("offset array of %d has no interior", len(s))
		}
		s[1] = s[2] + 1
	}

	cases := []struct {
		name string
		mut  func(t *testing.T, a *FrozenArrays)
		want string
	}{
		{"negative k", func(t *testing.T, a *FrozenArrays) { a.Ks[0] = -1 }, "negative k"},
		{"label out of range", func(t *testing.T, a *FrozenArrays) { a.Labels[0] = 99 }, "label 99 out of range"},
		{"retired not ascending", func(t *testing.T, a *FrozenArrays) { a.Retired[1] = a.Retired[0] }, "retired IDs not ascending"},
		{"extent offsets decrease", func(t *testing.T, a *FrozenArrays) { decrease(a.ExtentStart) }, "extent offsets decrease"},
		{"child offsets decrease", func(t *testing.T, a *FrozenArrays) { decrease(a.ChildStart) }, "child offsets decrease"},
		{"parent offsets decrease", func(t *testing.T, a *FrozenArrays) { decrease(a.ParentStart) }, "parent offsets decrease"},
		{"label offsets decrease", func(t *testing.T, a *FrozenArrays) { decrease(a.LabelStart) }, "label offsets decrease"},
		{"empty extent", func(t *testing.T, a *FrozenArrays) { a.ExtentStart[1] = 0 }, "node 0 has empty extent"},
		{"arena out of range", func(t *testing.T, a *FrozenArrays) { a.ExtentArena[0] = -5 }, "data node -5 out of range"},
		{"unsorted extent", func(t *testing.T, a *FrozenArrays) {
			v := first(t, "extent of two or more", func(v FrozenID) bool { return fz.Size(v) >= 2 })
			at := a.ExtentStart[v]
			a.ExtentArena[at], a.ExtentArena[at+1] = a.ExtentArena[at+1], a.ExtentArena[at]
		}, "extent not strictly ascending"},
		{"extent mixes labels", func(t *testing.T, a *FrozenArrays) {
			v, w := singletonAndPeer(t, false)
			a.ExtentArena[a.ExtentStart[v]] = fz.Extent(w)[0]
		}, "extent mixes labels"},
		{"data node in two extents", func(t *testing.T, a *FrozenArrays) {
			v, w := singletonAndPeer(t, true)
			a.ExtentArena[a.ExtentStart[v]] = fz.Extent(w)[0]
		}, "extent says"},
		{"nodeOf wrong owner", func(t *testing.T, a *FrozenArrays) {
			last := len(a.NodeOf) - 1
			a.NodeOf[0], a.NodeOf[last] = a.NodeOf[last], a.NodeOf[0]
		}, "extent says"},
		{"nodeOf past the end", func(t *testing.T, a *FrozenArrays) { a.NodeOf[0] = FrozenID(n) }, "nodeOf[0]"},
		{"nodeOf negative", func(t *testing.T, a *FrozenArrays) { a.NodeOf[len(a.NodeOf)-1] = -1 }, "nodeOf["},
		{"child edge out of range", func(t *testing.T, a *FrozenArrays) { a.Children[0] = FrozenID(n) }, "out of range"},
		{"child edge rewired", func(t *testing.T, a *FrozenArrays) {
			last := len(a.Children) - 1
			a.Children[0], a.Children[last] = a.Children[last], a.Children[0]
		}, "child"},
		{"child edge missing, parents to match", func(t *testing.T, a *FrozenArrays) {
			dropChild(a, 0)
			retranspose(a)
		}, "data graph induces"},
		{"child edge invented, parents to match", func(t *testing.T, a *FrozenArrays) {
			// n-1 sorts after u's last child, so it is not among u's
			// children and the list stays ascending.
			u := first(t, "node whose last child is not the last node", func(u FrozenID) bool {
				cs := fz.Children(u)
				return len(cs) > 0 && int(cs[len(cs)-1]) < n-1
			})
			a.Children[a.ChildStart[u+1]-1] = FrozenID(n - 1)
			retranspose(a)
		}, "not induced by the data graph"},
		{"child edge duplicated", func(t *testing.T, a *FrozenArrays) {
			v := first(t, "node with two children", func(v FrozenID) bool { return len(fz.Children(v)) >= 2 })
			a.Children[a.ChildStart[v]+1] = a.Children[a.ChildStart[v]]
		}, "child list not strictly ascending"},
		{"parent edge rewired", func(t *testing.T, a *FrozenArrays) {
			last := len(a.Parents) - 1
			a.Parents[0], a.Parents[last] = a.Parents[last], a.Parents[0]
		}, "parent"},
		{"parent edge duplicated", func(t *testing.T, a *FrozenArrays) {
			v := first(t, "node with two parents", func(v FrozenID) bool { return len(fz.Parents(v)) >= 2 })
			a.Parents[a.ParentStart[v]+1] = a.Parents[a.ParentStart[v]]
		}, "parent"},
		{"parent edge out of range", func(t *testing.T, a *FrozenArrays) { a.Parents[0] = -1 }, "parent"},
		{"label bucket shuffled", func(t *testing.T, a *FrozenArrays) {
			last := len(a.LabelNodes) - 1
			a.LabelNodes[0], a.LabelNodes[last] = a.LabelNodes[last], a.LabelNodes[0]
		}, "label"},
		{"label bucket duplicate", func(t *testing.T, a *FrozenArrays) {
			l := 0
			for l < g.NumLabels() && fz.CountLabel(graph.LabelID(l)) < 2 {
				l++
			}
			if l == g.NumLabels() {
				t.Fatal("test graph has no label with two index nodes")
			}
			// Doubling one node necessarily drops another from the bucket.
			a.LabelNodes[a.LabelStart[l]+1] = a.LabelNodes[a.LabelStart[l]]
		}, "bucket not strictly ascending"},
		{"P3 broken", func(t *testing.T, a *FrozenArrays) {
			u := first(t, "edge between two nodes", func(u FrozenID) bool {
				cs := fz.Children(u)
				return len(cs) > 0 && cs[len(cs)-1] != u
			})
			cs := fz.Children(u)
			clear(a.Ks)
			a.Ks[cs[len(cs)-1]] = 5
		}, "P3 violated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := cloneArrays(pristine)
			tc.mut(t, &a)
			if reflect.DeepEqual(a, pristine) {
				t.Fatal("mutation changed nothing")
			}
			got, err := FrozenFromArrays(g, a)
			if err != nil {
				t.Fatalf("rejected by the shape check, so Verify was not exercised: %v", err)
			}
			if err := got.Verify(); err == nil {
				t.Fatal("Verify accepted the corrupted snapshot")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify rejected with %q, want the check mentioning %q", err, tc.want)
			}
			if got.verifySlow() == nil {
				t.Fatal("reference verifier accepted the corrupted snapshot")
			}
		})
	}
}
