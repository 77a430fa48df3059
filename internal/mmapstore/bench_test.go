package mmapstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
)

// benchSizes spans two orders of magnitude so the cold-start sweep can show
// the trusted open staying flat while the verified one grows with the
// index.
var benchSizes = []int{1_000, 10_000, 100_000}

// benchIndex is one prepared measurement subject: a refined frozen index
// over a graph of a given size, plus its snapshot encoding and a
// supportable query workload.
type benchIndex struct {
	g     *graph.Graph
	fm    *core.FrozenMStar
	exprs []*pathexpr.Expr
	snap  []byte // mmapstore encoding
}

// benchCache shares the expensive index builds across benchmarks in one
// `go test -bench` process; builds are never timed.
var benchCache = map[string]*benchIndex{}

// benchBuild refines M*(k) over g for the supportable part of workload and
// encodes it, once per key.
func benchBuild(b *testing.B, key string, g func() *graph.Graph, workload func(*graph.Graph) []string) *benchIndex {
	b.Helper()
	if bi, ok := benchCache[key]; ok {
		return bi
	}
	bi := &benchIndex{g: g()}
	ms := core.NewMStar(bi.g)
	for _, s := range workload(bi.g) {
		e, err := pathexpr.Parse(s)
		if err != nil {
			b.Fatalf("parse %q: %v", s, err)
		}
		bi.exprs = append(bi.exprs, e)
		if !e.HasWildcard() && e.RequiredK() != pathexpr.Unbounded {
			ms.Support(e)
		}
	}
	bi.fm = ms.Freeze()

	var snap bytes.Buffer
	if err := Write(&snap, bi.fm, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	bi.snap = snap.Bytes()
	benchCache[key] = bi
	return bi
}

func benchSetup(b *testing.B, nodes int) *benchIndex {
	b.Helper()
	return benchBuild(b, fmt.Sprintf("n=%d", nodes),
		func() *graph.Graph { return gtest.Random(int64(nodes), nodes, 8, 0.2) },
		func(g *graph.Graph) []string {
			return gtest.RandomWorkload(int64(nodes)+1, g, gtest.WorkloadOptions{Size: 24, MaxLen: 4})
		})
}

// benchXMark is the document-shaped subject: XMark at paper scale, about
// 120k data nodes under 74 labels, so I0 packs tens of thousands of data
// nodes into single extents whose children spread over dozens of index
// nodes. gtest.Random's uniform extents never showed what verification
// costs on that shape. Unrefined it is I0 alone; refined it carries the
// finer components a handful of FUPs add.
func benchXMark(b *testing.B, refined bool) *benchIndex {
	b.Helper()
	key, fups := "xmark-I0", []string(nil)
	if refined {
		key, fups = "xmark-refined", []string{
			"//open_auction/bidder/personref",
			"//closed_auction/annotation/description/parlist/listitem",
			"//person/profile/interest",
			"//item/mailbox/mail/text",
			"//regions/europe/item/name",
		}
	}
	return benchBuild(b, key,
		func() *graph.Graph { return datagen.XMarkGraph(1.0, 1) },
		func(*graph.Graph) []string { return fups })
}

// benchSnapFile materializes the encoded snapshot on disk for the mmap open
// paths (Open maps a file, not a byte slice).
func benchSnapFile(b *testing.B, bi *benchIndex) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.mrx")
	if err := os.WriteFile(path, bi.snap, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkColdStart measures time-to-first-query across index sizes for
// the two ways of opening a snapshot file:
//
//   - mmap-verified: Open with full checksum + deep structural verification
//     — linear in index plus data-graph size too (one pass per component,
//     components in parallel), streaming over mapped bytes with no
//     allocation proportional to the extents.
//   - mmap-trusted: Open with Trusted — header, directory and aliasing,
//     plus the bounds-checked pass that builds the subnode links, so cost
//     is linear in the index nodes, not in the file or the data graph.
//
// The subjects are random graphs across three sizes plus XMark, unrefined
// and refined (see benchXMark).
func BenchmarkColdStart(b *testing.B) {
	type subject struct {
		name string
		bi   *benchIndex
	}
	var subjects []subject
	for _, n := range benchSizes {
		subjects = append(subjects, subject{fmt.Sprintf("n=%d", n), benchSetup(b, n)})
	}
	subjects = append(subjects, subject{"xmark-I0", benchXMark(b, false)}, subject{"xmark-refined", benchXMark(b, true)})
	for _, sub := range subjects {
		n, bi := sub.name, sub.bi
		path := benchSnapFile(b, bi)
		b.Run(n+"/mmap-verified", func(b *testing.B) {
			b.SetBytes(int64(len(bi.snap)))
			for i := 0; i < b.N; i++ {
				snap, err := Open(path, bi.g, Options{})
				if err != nil {
					b.Fatal(err)
				}
				snap.Close()
			}
		})
		b.Run(n+"/mmap-trusted", func(b *testing.B) {
			b.SetBytes(int64(len(bi.snap)))
			for i := 0; i < b.N; i++ {
				snap, err := Open(path, bi.g, Options{Trusted: true})
				if err != nil {
					b.Fatal(err)
				}
				snap.Close()
			}
		})
	}
}

// BenchmarkServing runs the same workload through a heap-resident frozen
// view and a memory-mapped one. The mapped view must stay within ~10% of
// heap — the read path is identical aliased []int32 arrays either way; only
// the page source differs — or disk-resident serving would not be free.
func BenchmarkServing(b *testing.B) {
	bi := benchSetup(b, 10_000)
	path := benchSnapFile(b, bi)
	snap, err := Open(path, bi.g, Options{Trusted: true})
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	for _, view := range []struct {
		name string
		fm   *core.FrozenMStar
	}{
		{"heap", bi.fm},
		{"mapped", snap.FrozenMStar()},
	} {
		b.Run(view.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := bi.exprs[i%len(bi.exprs)]
				_ = view.fm.Query(e)
			}
		})
	}
}
