package index_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/index"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
)

// nestingRef is the nesting check of the verified assembly as it stood
// when every component was verified against the data graph on its own:
// every extent of fine = I(i) lies inside one extent of coarse = I(i-1),
// every index bounds-checked before it is read. The loop is the verified
// branch of the loader's linking pass, verbatim, without building links.
func nestingRef(coarse, fine *index.Frozen, i int) error {
	fa, nodeOf := fine.Arrays(), coarse.Arrays().NodeOf
	badMember := func(v int, o graph.NodeID) error {
		if o < 0 || int(o) >= len(nodeOf) {
			return fmt.Errorf("mstar: component I%d node %d: extent holds data node %d of %d", i, v, o, len(nodeOf))
		}
		return fmt.Errorf("mstar: component I%d node %d spans two I%d extents", i, v, i-1)
	}
	for v := 0; v < fine.NumNodes(); v++ {
		lo, hi := fa.ExtentStart[v], fa.ExtentStart[v+1]
		if lo < 0 || hi > int32(len(fa.ExtentArena)) || lo >= hi {
			return fmt.Errorf("mstar: component I%d node %d has an empty or out-of-range extent [%d,%d)", i, v, lo, hi)
		}
		ext := fa.ExtentArena[lo:hi]
		if ext[0] < 0 || int(ext[0]) >= len(nodeOf) {
			return badMember(v, ext[0])
		}
		u := nodeOf[ext[0]]
		if u < 0 || int(u) >= coarse.NumNodes() {
			return fmt.Errorf("mstar: component I%d node %d: supernode %d of %d in I%d", i, v, u, coarse.NumNodes(), i-1)
		}
		for _, o := range ext[1:] {
			if o < 0 || int(o) >= len(nodeOf) || nodeOf[o] != u {
				return badMember(v, o)
			}
		}
	}
	return nil
}

// chainRef is the oracle for a verified load: every component checked
// against the data graph on its own, then every adjacent pair's nesting.
func chainRef(comps []*index.Frozen) error {
	for i, c := range comps {
		if err := c.VerifyRef(); err != nil {
			return fmt.Errorf("component I%d: %w", i, err)
		}
	}
	for i := 1; i < len(comps); i++ {
		if err := nestingRef(comps[i-1], comps[i], i); err != nil {
			return err
		}
	}
	return nil
}

// chainSubject is a refined M*(k) with at least two components, as arrays.
type chainSubject struct {
	g      *graph.Graph
	arrays []index.FrozenArrays
}

// chainSubjects refines M*(k) over small random graphs — tens of nodes, so
// the mutations' small operands land on both sides of every range bound —
// until each has at least two components.
func chainSubjects(tb testing.TB) []chainSubject {
	tb.Helper()
	var subs []chainSubject
	for seed := int64(1); len(subs) < 8; seed++ {
		g := gtest.Random(seed, 12+int(seed*7%40), 2+int(seed%3), 0.25)
		ms := core.NewMStar(g)
		for _, s := range gtest.RandomWorkload(seed, g, gtest.WorkloadOptions{Size: 6, MaxLen: 3}) {
			if e, err := pathexpr.Parse(s); err == nil && !e.HasWildcard() && e.RequiredK() != pathexpr.Unbounded {
				ms.Support(e)
			}
		}
		fm := ms.Freeze()
		if fm.NumComponents() < 2 {
			continue
		}
		sub := chainSubject{g: g}
		for i := 0; i < fm.NumComponents(); i++ {
			sub.arrays = append(sub.arrays, fm.Component(i).Arrays())
		}
		subs = append(subs, sub)
	}
	return subs
}

// verdicts of checkChainAgrees.
const (
	chainShapeRejected = iota // refused before either verifier ran
	chainBothRejected
	chainBothAccepted
)

// chainGroup is the encoded size of one edit: a component selector byte,
// then one mutation of MutateArrays.
const chainGroup = 1 + index.MutationSize

// checkChainAgrees applies up to three edits decoded from ops — each to
// any section of any component — to a copy of sub, writes the result as a
// snapshot (so every section is resealed with a valid checksum) and opens
// it verified. The open must accept iff the oracle accepts. It returns the
// verdict and the open's error.
func checkChainAgrees(t testing.TB, sub chainSubject, ops []byte) (int, error) {
	t.Helper()
	arrays := make([]index.FrozenArrays, len(sub.arrays))
	for i, a := range sub.arrays {
		arrays[i] = index.CloneArrays(a)
	}
	for n, rest := 0, ops; n < 3 && len(rest) >= chainGroup; n, rest = n+1, rest[chainGroup:] {
		index.MutateArrays(&arrays[int(rest[0])%len(arrays)], rest[1:chainGroup])
	}
	comps := make([]*index.Frozen, len(arrays))
	for i, a := range arrays {
		fz, err := index.FrozenFromArrays(sub.g, a)
		if err != nil {
			return chainShapeRejected, err
		}
		comps[i] = fz
	}
	want := chainRef(comps)
	// Write needs an assembled view; a trusted assembly refuses only what
	// the oracle refuses too (an extent or owner it cannot bounds-check).
	fm, err := core.AssembleFrozenMStar(sub.g, comps, core.MStarOptions{}, false)
	if err != nil {
		if want == nil {
			t.Fatalf("ops %x: trusted assembly refused (%v) what the reference accepts", ops, err)
		}
		return chainShapeRejected, err
	}
	var buf bytes.Buffer
	if err := mmapstore.Write(&buf, fm, mmapstore.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	_, got := mmapstore.OpenBytes(buf.Bytes(), sub.g, mmapstore.Options{})
	if (got == nil) != (want == nil) {
		t.Fatalf("ops %x: verified open says %v, reference says %v", ops, got, want)
	}
	if got != nil {
		return chainBothRejected, got
	}
	return chainBothAccepted, nil
}

// TestLoadChainMatchesReference is the deterministic sweep of the
// differential check between the verified load chain and the
// per-component reference. Both verdicts must come up often, and so must
// rejections that only a coarser component's check through its finer
// neighbour makes: without them the sweep would not test that check.
func TestLoadChainMatchesReference(t *testing.T) {
	subs := chainSubjects(t)
	rng := rand.New(rand.NewSource(1))
	var count [3]int
	through := 0
	for i := 0; i < 6000; i++ {
		sub := subs[rng.Intn(len(subs))]
		if i%200 == 0 {
			if v, err := checkChainAgrees(t, sub, nil); v != chainBothAccepted {
				t.Fatalf("unmutated snapshot rejected: %v", err)
			}
		}
		ops := make([]byte, chainGroup*(1+rng.Intn(3)))
		rng.Read(ops)
		v, err := checkChainAgrees(t, sub, ops)
		count[v]++
		if v == chainBothRejected && strings.Contains(err.Error(), "the finer component") {
			through++
		}
	}
	t.Logf("%d shape-rejected, %d rejected by both (%d through a finer component), %d accepted by both",
		count[chainShapeRejected], count[chainBothRejected], through, count[chainBothAccepted])
	if count[chainBothRejected] < 1000 || count[chainBothAccepted] < 100 || through < 50 {
		t.Fatalf("sweep is lopsided: %d rejected (%d through a finer component), %d accepted",
			count[chainBothRejected], through, count[chainBothAccepted])
	}
}
