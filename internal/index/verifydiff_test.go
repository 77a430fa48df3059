package index

import (
	"math/rand"
	"slices"
	"testing"

	"mrx/internal/gtest"
	"mrx/internal/partition"
)

// mutationSize is the encoded size of one mutation: selector (1 byte),
// position (2), kind (1), operand (2).
const mutationSize = 6

// mutateArrays applies up to two mutations decoded from ops to a. Every
// array is a candidate for an in-place edit, offset arrays included;
// positions and operands wrap to the array at hand, so any byte string is a
// valid mutation script. Two more selectors make compound edits that in-place
// ones cannot: dropping a child edge, and re-deriving the parent CSR from
// the (possibly edited) child CSR, which leaves the P2 comparison against
// the data graph as the only check standing between the edit and acceptance.
func mutateArrays(a *FrozenArrays, ops []byte) {
	for i := 0; i < 2 && len(ops) >= mutationSize; i, ops = i+1, ops[mutationSize:] {
		pos := int(ops[1])<<8 | int(ops[2])
		kind := ops[3]
		val := int32(int16(uint16(ops[4])<<8 | uint16(ops[5])))
		switch ops[0] % 14 {
		case 0:
			mutateSlice(a.Retired, pos, kind, val)
		case 1:
			mutateSlice(a.Ks, pos, kind, val)
		case 2:
			mutateSlice(a.Labels, pos, kind, val)
		case 3:
			mutateSlice(a.ExtentStart, pos, kind, val)
		case 4:
			mutateSlice(a.ExtentArena, pos, kind, val)
		case 5:
			mutateSlice(a.ChildStart, pos, kind, val)
		case 6:
			mutateSlice(a.Children, pos, kind, val)
		case 7:
			mutateSlice(a.ParentStart, pos, kind, val)
		case 8:
			mutateSlice(a.Parents, pos, kind, val)
		case 9:
			mutateSlice(a.LabelStart, pos, kind, val)
		case 10:
			mutateSlice(a.LabelNodes, pos, kind, val)
		case 11:
			mutateSlice(a.NodeOf, pos, kind, val)
		case 12:
			dropChild(a, pos)
			retranspose(a)
		case 13:
			retranspose(a)
		}
	}
}

// dropChild deletes child edge number pos (wrapped) and shifts the offsets
// behind it; the caller retransposes to keep the two CSR halves the same
// length, which the shape check insists on.
func dropChild(a *FrozenArrays, pos int) {
	if len(a.Children) == 0 {
		return
	}
	pos %= len(a.Children)
	a.Children = slices.Delete(a.Children, pos, pos+1)
	for i := range a.ChildStart {
		if int(a.ChildStart[i]) > pos {
			a.ChildStart[i]--
		}
	}
}

// retranspose replaces the parent CSR by the exact transpose of the child
// CSR, when the child CSR is sound enough to transpose.
func retranspose(a *FrozenArrays) {
	n := len(a.ChildStart) - 1
	if a.ChildStart[0] != 0 || int(a.ChildStart[n]) != len(a.Children) {
		return
	}
	for i := 0; i < n; i++ {
		if a.ChildStart[i] > a.ChildStart[i+1] {
			return
		}
	}
	for _, c := range a.Children {
		if c < 0 || int(c) >= n {
			return
		}
	}
	a.ParentStart, a.Parents = transposeCSR(a.ChildStart, a.Children)
}

// mutateSlice changes s[pos] in one of four ways: nudge it by a few, set it
// to a value near the array's own index range (or, rarely, far outside),
// swap it with another entry, or overwrite it with a copy of another entry.
// The test graphs have tens of nodes, so small operands land on both sides
// of every range bound.
func mutateSlice[T ~int32](s []T, pos int, kind byte, val int32) {
	if len(s) == 0 {
		return
	}
	pos %= len(s)
	other := (pos + int(uint16(val))) % len(s)
	switch kind % 4 {
	case 0:
		s[pos] += T(val%5 - 2)
	case 1:
		if val%16 == 0 {
			s[pos] = T(val) << 16 // far out of range, either sign
		} else {
			s[pos] = T(val%int32(len(s)+3)) - 1
		}
	case 2:
		s[pos], s[other] = s[other], s[pos]
	case 3:
		s[pos] = s[other]
	}
}

// verdicts of checkVerifyAgrees.
const (
	shapeRejected = iota
	bothRejected
	bothAccepted
)

// checkVerifyAgrees freezes a k-bisimulation index of a random graph,
// applies the mutation script to a copy of its arrays, and holds Verify to
// the reference verifier: one accepts iff the other does. A panic in either
// fails the test (or is a fuzz crasher). Mutations the O(1) shape check
// already refuses never reach either verifier and are reported as such.
func checkVerifyAgrees(t *testing.T, seed int64, nodes, k uint8, ops []byte) int {
	t.Helper()
	g := gtest.Random(seed, 2+int(nodes)%48, 1+int(seed&3), 0.25)
	level := int(k) % 4
	ig := FromPartition(g, partition.KBisim(g, level), func(partition.BlockID) int { return level })
	a := cloneArrays(ig.Freeze().Arrays())
	mutateArrays(&a, ops)
	fz, err := FrozenFromArrays(g, a)
	if err != nil {
		return shapeRejected
	}
	got, want := fz.Verify(), fz.verifySlow()
	if (got == nil) != (want == nil) {
		t.Fatalf("seed %d nodes %d k %d ops %x: Verify says %v, reference says %v", seed, nodes, k, ops, got, want)
	}
	if got != nil {
		return bothRejected
	}
	return bothAccepted
}

// TestVerifyMatchesReference is the deterministic sweep of the differential
// check: it must reach both verdicts often, and unmutated snapshots must be
// accepted.
func TestVerifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var count [3]int
	for i := 0; i < 6000; i++ {
		ops := make([]byte, mutationSize*(1+rng.Intn(2)))
		rng.Read(ops)
		seed, nodes, k := rng.Int63n(200), uint8(rng.Intn(256)), uint8(rng.Intn(4))
		count[checkVerifyAgrees(t, seed, nodes, k, ops)]++
		if i%100 == 0 && checkVerifyAgrees(t, seed, nodes, k, nil) != bothAccepted {
			t.Fatalf("seed %d nodes %d k %d: unmutated snapshot rejected", seed, nodes, k)
		}
	}
	t.Logf("%d shape-rejected, %d rejected by both, %d accepted by both", count[shapeRejected], count[bothRejected], count[bothAccepted])
	if count[bothRejected] < 1000 || count[bothAccepted] < 100 {
		t.Fatalf("sweep is lopsided: %d rejected, %d accepted", count[bothRejected], count[bothAccepted])
	}
}

// FuzzFrozenArrays lets the fuzzer drive the differential check: unlike
// FuzzMmapSnapshot, whose mutations die at a CRC, every input here is a
// structurally plausible FrozenArrays one or two edits away from valid, so
// coverage guidance works on Verify itself.
func FuzzFrozenArrays(f *testing.F) {
	f.Add(int64(11), uint8(40), uint8(1), []byte{})
	for arr := byte(0); arr < 14; arr++ {
		for kind := byte(0); kind < 4; kind++ {
			f.Add(int64(arr), uint8(30), kind, []byte{arr, 0, 1, kind, 0, 3, 13 - arr, 0, 2, kind + 1, 0xff, 0xfe})
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, k uint8, ops []byte) {
		checkVerifyAgrees(t, seed, nodes, k, ops)
	})
}

// transposeCSR derives the parent CSR of a well-formed child CSR by
// counting: each parent list comes out in ascending order.
func transposeCSR(childStart []int32, children []FrozenID) (parentStart []int32, parents []FrozenID) {
	n := len(childStart) - 1
	parentStart = make([]int32, n+1)
	for _, c := range children {
		parentStart[c+1]++
	}
	for i := 0; i < n; i++ {
		parentStart[i+1] += parentStart[i]
	}
	parents = make([]FrozenID, len(children))
	fill := slices.Clone(parentStart[:n])
	for u := 0; u < n; u++ {
		for _, c := range children[childStart[u]:childStart[u+1]] {
			parents[fill[c]] = FrozenID(u)
			fill[c]++
		}
	}
	return parentStart, parents
}
