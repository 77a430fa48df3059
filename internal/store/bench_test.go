package store

import (
	"os"
	"path/filepath"
	"testing"

	"mrx/internal/datagen"
)

// BenchmarkReadGraph measures the data-graph half of a cold restart:
// XMark at paper scale (about 120k nodes) read back from a file, the way
// mrserve -graph and the benchmark's restart read it.
func BenchmarkReadGraph(b *testing.B) {
	g := datagen.XMarkGraph(1.0, 1)
	path := filepath.Join(b.TempDir(), "xmark.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteGraph(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		got, err := ReadGraph(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if got.NumNodes() != g.NumNodes() {
			b.Fatalf("read %d nodes, wrote %d", got.NumNodes(), g.NumNodes())
		}
	}
}
