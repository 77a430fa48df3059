package mmapstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
)

// testIndex builds a refined M*(k) over a random graph, returning the graph,
// the frozen view, and a parsed workload for equivalence checks.
func testIndex(tb testing.TB, seed int64) (*graph.Graph, *core.FrozenMStar, []*pathexpr.Expr) {
	tb.Helper()
	g := gtest.Random(seed, 90, 5, 0.25)
	ms := core.NewMStar(g)
	var exprs []*pathexpr.Expr
	for _, s := range gtest.RandomWorkload(seed+1, g, gtest.WorkloadOptions{Size: 12, MaxLen: 3}) {
		e, err := pathexpr.Parse(s)
		if err != nil {
			tb.Fatalf("parse %q: %v", s, err)
		}
		exprs = append(exprs, e)
		if !e.HasWildcard() && e.RequiredK() != pathexpr.Unbounded {
			ms.Support(e)
		}
	}
	fm := ms.Freeze()
	if fm.NumComponents() < 2 {
		tb.Fatalf("workload refined to only %d component(s)", fm.NumComponents())
	}
	return g, fm, exprs
}

func encode(tb testing.TB, fm *core.FrozenMStar, o WriteOptions) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, fm, o); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// sameAnswers checks that the loaded view answers the whole workload exactly
// like the in-memory frozen view.
func sameAnswers(tb testing.TB, want, got *core.FrozenMStar, exprs []*pathexpr.Expr) {
	tb.Helper()
	for _, e := range exprs {
		w, g := want.Query(e), got.Query(e)
		if len(w.Answer) != len(g.Answer) {
			tb.Fatalf("%s: %d answers, want %d", e, len(g.Answer), len(w.Answer))
		}
		for i := range w.Answer {
			if w.Answer[i] != g.Answer[i] {
				tb.Fatalf("%s: answer %d is %d, want %d", e, i, g.Answer[i], w.Answer[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g, fm, exprs := testIndex(t, 3)
	variants := []struct {
		name string
		wo   WriteOptions
		ro   Options
	}{
		{"raw", WriteOptions{}, Options{}},
		{"compact", WriteOptions{CompactExtents: true}, Options{}},
		{"bigendian", WriteOptions{BigEndian: true}, Options{}},
		{"forcecopy", WriteOptions{}, Options{ForceCopy: true}},
		{"trusted", WriteOptions{}, Options{Trusted: true}},
		{"compact-bigendian", WriteOptions{CompactExtents: true, BigEndian: true}, Options{}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			enc := encode(t, fm, v.wo)
			snap, err := OpenBytes(enc, g, v.ro)
			if err != nil {
				t.Fatalf("OpenBytes: %v", err)
			}
			sameAnswers(t, fm, snap.FrozenMStar(), exprs)
			// Re-encoding the loaded view must reproduce the file byte for
			// byte: the mapped view carries exactly the in-memory state.
			if re := encode(t, snap.FrozenMStar(), v.wo); !bytes.Equal(re, enc) {
				t.Fatal("re-encoding the loaded view changed the bytes")
			}
			// And re-encoding with default options must match the in-memory
			// snapshot's default encoding, whatever variant it came through.
			if got, want := encode(t, snap.FrozenMStar(), WriteOptions{}), encode(t, fm, WriteOptions{}); !bytes.Equal(got, want) {
				t.Fatal("loaded view and source snapshot encode differently")
			}
		})
	}
}

func TestMisalignedBufferFallsBackToDecode(t *testing.T) {
	g, fm, exprs := testIndex(t, 5)
	enc := encode(t, fm, WriteOptions{})
	// Force a misaligned backing buffer; the reader must detect it and
	// decode instead of taking unsafe views.
	buf := make([]byte, len(enc)+1)
	copy(buf[1:], enc)
	shifted := buf[1:]
	if aligned4(shifted) {
		t.Skip("allocator produced an aligned odd-offset slice")
	}
	snap, err := OpenBytes(shifted, g, Options{})
	if err != nil {
		t.Fatalf("OpenBytes on misaligned buffer: %v", err)
	}
	sameAnswers(t, fm, snap.FrozenMStar(), exprs)
}

func TestOpenFile(t *testing.T) {
	g, fm, exprs := testIndex(t, 7)
	path := filepath.Join(t.TempDir(), "snap.mrx")
	if err := WriteFile(path, fm, WriteOptions{}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	for _, o := range []Options{{}, {Trusted: true}} {
		snap, err := Open(path, g, o)
		if err != nil {
			t.Fatalf("Open (trusted=%v): %v", o.Trusted, err)
		}
		sameAnswers(t, fm, snap.FrozenMStar(), exprs)
		if err := snap.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := snap.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

func TestOpenRejectsWrongGraph(t *testing.T) {
	g, fm, _ := testIndex(t, 9)
	enc := encode(t, fm, WriteOptions{})
	other := gtest.Random(10, g.NumNodes()+5, 4, 0.2)
	if _, err := OpenBytes(enc, other, Options{}); err == nil {
		t.Fatal("accepted a snapshot bound to a different graph")
	}
}

func TestCorruptionRejected(t *testing.T) {
	g, fm, _ := testIndex(t, 11)
	enc := encode(t, fm, WriteOptions{})

	// Truncations at every interesting boundary.
	for _, n := range []int{0, 4, headerSize - 1, headerSize, headerSize + 20, len(enc) / 2, len(enc) - 1} {
		if _, err := OpenBytes(enc[:n], g, Options{}); err == nil {
			t.Errorf("accepted truncation to %d bytes", n)
		}
	}
	// Single-byte corruption across the whole file: header, directory, or
	// payload — the checksums must catch anything parsing itself misses.
	stride := len(enc)/97 + 1
	for off := 0; off < len(enc); off += stride {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		if _, err := OpenBytes(mut, g, Options{}); err == nil {
			// A flip may land in padding bytes, which no checksum covers and
			// no reader examines; only padding flips may be accepted.
			if !inPadding(t, enc, off) {
				t.Errorf("accepted bit flip at offset %d", off)
			}
		}
	}
}

// A trusted open skips the checksums and the deep walk but still builds the
// subnode links, so damage in what linking reads — a fine extent's first
// member, or its coarse owner — must fail the open with an error naming the
// component, never panic there or at query time.
func TestTrustedOpenRejectsBadLinks(t *testing.T) {
	g, fm, _ := testIndex(t, 11)
	path := filepath.Join(t.TempDir(), "snap.mrx")
	if err := Publish(path, fm, WriteOptions{}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.NumNodes())
	for _, tc := range []struct {
		name       string
		comp, kind int
		val        int32
		want       string
	}{
		{"arena entry past the data graph", 1, secExtentArena, n, "component I1 node 0: extent holds data node"},
		{"negative arena entry", 1, secExtentArena, -1, "component I1 node 0: extent holds data node -1"},
		{"owner past the coarse component", 0, secNodeOf, 1 << 20, "component I1 node 0: supernode 1048576"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, corruptSection(t, enc, tc.comp, tc.kind, tc.val, false), 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := Open(path, g, Options{Trusted: true})
			if err == nil {
				snap.Close()
				t.Fatal("trusted open accepted a snapshot it cannot link")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// inPadding reports whether off falls in alignment padding (bytes between
// section payloads that no directory entry covers).
func inPadding(tb testing.TB, enc []byte, off int) bool {
	tb.Helper()
	h, err := parseHeader(enc)
	if err != nil {
		tb.Fatalf("parseHeader on valid bytes: %v", err)
	}
	if off < headerSize+int(h.sections)*dirEntrySize {
		return false
	}
	ents, err := parseDirectory(enc, h)
	if err != nil {
		tb.Fatalf("parseDirectory on valid bytes: %v", err)
	}
	for _, e := range ents {
		if uint64(off) >= e.off && uint64(off) < e.off+e.size {
			return false
		}
	}
	return true
}

func TestPublishAtomicAndRepeatable(t *testing.T) {
	g, fm, exprs := testIndex(t, 13)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.mrx")
	if err := Publish(path, fm, WriteOptions{}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	snap, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open after Publish: %v", err)
	}
	sameAnswers(t, fm, snap.FrozenMStar(), exprs)

	// Republish over the live file: the existing mapping must stay valid
	// (rename unlinks the name, not the inode) and a fresh open sees the
	// new generation.
	if err := Publish(path, fm, WriteOptions{CompactExtents: true}); err != nil {
		t.Fatalf("re-Publish: %v", err)
	}
	sameAnswers(t, fm, snap.FrozenMStar(), exprs)
	snap2, err := Open(path, g, Options{})
	if err != nil {
		t.Fatalf("Open after re-Publish: %v", err)
	}
	sameAnswers(t, fm, snap2.FrozenMStar(), exprs)

	// No temp litter may survive a successful publish.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("publish left temp files behind: %v", matches)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsNonSnapshotFile(t *testing.T) {
	g, _, _ := testIndex(t, 15)
	path := filepath.Join(t.TempDir(), "not-a-snapshot")
	if err := os.WriteFile(path, []byte("hello, world — definitely not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, g, Options{}); err == nil {
		t.Fatal("accepted a non-snapshot file")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), g, Options{}); err == nil {
		t.Fatal("accepted a missing file")
	}
}

// corruptSection returns a copy of the valid snapshot enc with the first
// element of one section overwritten. With reseal the section and directory
// checksums are recomputed, so the damage gets past the CRCs and is left for
// the structural walk to find; without, the section checksum catches it.
func corruptSection(tb testing.TB, enc []byte, comp, kind int, val int32, reseal bool) []byte {
	tb.Helper()
	h, err := parseHeader(enc)
	if err != nil {
		tb.Fatal(err)
	}
	ents, err := parseDirectory(enc, h)
	if err != nil {
		tb.Fatal(err)
	}
	out := append([]byte(nil), enc...)
	idx := comp*numSections + kind
	e := ents[idx]
	if e.enc != encRaw32 || e.size < 4 {
		tb.Fatalf("section %s cannot take an int32", e.name())
	}
	if int32(h.order.Uint32(out[e.off:])) == val {
		tb.Fatalf("section %s already starts with %d", e.name(), val)
	}
	h.order.PutUint32(out[e.off:], uint32(val))
	if reseal {
		dir := out[headerSize : headerSize+int(h.sections)*dirEntrySize]
		e.crc = crc32.Checksum(out[e.off:e.off+e.size], castagnoli)
		putDirEntry(dir[idx*dirEntrySize:], h.order, e)
		h.order.PutUint32(out[56:60], crc32.Checksum(dir, castagnoli))
	}
	return out
}

// TestParallelRejectionIsDeterministic damages two components at once, in
// every combination of "caught by a checksum" and "caught by the structural
// walk", and opens the file repeatedly on more workers than components: the
// error must always be the lower-numbered component's, word for word, never
// whichever worker lost the race.
func TestParallelRejectionIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	g, fm, _ := testIndex(t, 11)
	nc := fm.NumComponents()
	if nc < 3 {
		t.Fatalf("need three components to corrupt two and leave one, have %d", nc)
	}
	enc := encode(t, fm, WriteOptions{})
	for i := 0; i < nc; i++ {
		for j := i + 1; j < nc; j++ {
			for _, sealed := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
				// A negative k: harmless to parsing, fatal to Verify.
				bad := corruptSection(t, enc, j, secKs, -7, sealed[1])
				bad = corruptSection(t, bad, i, secKs, -7, sealed[0])
				name := fmt.Sprintf("I%d", i)
				var first string
				for rep := 0; rep < 25; rep++ {
					_, err := OpenBytes(bad, g, Options{})
					if err == nil {
						t.Fatalf("I%d+I%d damaged (resealed %v): accepted", i, j, sealed)
					}
					if !strings.Contains(err.Error(), name) {
						t.Fatalf("I%d+I%d damaged (resealed %v): error %q does not name %s", i, j, sealed, err, name)
					}
					if rep == 0 {
						first = err.Error()
					} else if err.Error() != first {
						t.Fatalf("I%d+I%d damaged (resealed %v): error changed between opens: %q then %q", i, j, sealed, first, err)
					}
				}
			}
		}
	}
}

func TestLowestError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for n := 0; n <= 8; n++ {
		for fails := 0; fails < 1<<n; fails++ { // every subset of failing indices
			var calls atomic.Int32
			err := lowestError(n, func(i int) error {
				calls.Add(1)
				if fails&(1<<i) != 0 {
					return fmt.Errorf("%d", i)
				}
				return nil
			})
			want := bits.TrailingZeros(uint(fails))
			switch {
			case fails == 0 && (err != nil || int(calls.Load()) != n):
				t.Fatalf("n=%d, none failing: err %v after %d calls", n, err, calls.Load())
			case fails != 0 && (err == nil || err.Error() != fmt.Sprint(want)):
				t.Fatalf("n=%d, failing set %b: got %v, want %d", n, fails, err, want)
			}
		}
	}
}
