package store

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/gtest"
)

// fuzzGraph is the data graph whose encoding seeds FuzzStoreGraph.
func fuzzGraph() *graph.Graph { return gtest.Random(4, 40, 3, 0.2) }

func seedBytes(tb testing.TB, write func(*bytes.Buffer) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzStoreGraph holds ReadGraph to refReadGraph, the reader it replaced.
// On any bytes both accept or both reject, except that ReadGraph alone
// rejects a label table naming a label twice; neither may panic or
// over-allocate. Accepted graphs agree on every child list, edge kind and
// parent list. Their labels agree by LabelID when the file's table is in
// first-use order with no unused entry, and by name otherwise. Every
// accepted graph survives a write/read round trip with its LabelIDs.
func FuzzStoreGraph(f *testing.F) {
	valid := seedBytes(f, func(b *bytes.Buffer) error { return WriteGraph(b, fuzzGraph()) })
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(graphMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		// A label takes at least one byte, so both readers reject a table
		// longer than the file; the reference would first allocate it.
		if n, _ := binary.Uvarint(bytes.TrimPrefix(data, []byte(graphMagic))); err != nil && n > uint64(len(data)) {
			return
		}
		want, werr := refReadGraph(bytes.NewReader(data))
		if err != nil {
			if werr == nil && !strings.Contains(err.Error(), "duplicate label name") {
				t.Fatalf("rejected what the reference accepts: %v", err)
			}
			return
		}
		if werr != nil {
			t.Fatalf("accepted what the reference rejects (%v)", werr)
		}
		if err := sameStructure(g, want); err != nil {
			t.Fatalf("differs from the reference: %v", err)
		}
		if firstUseOrder(g) && !sameLabelIDs(g, want) {
			t.Fatal("label IDs differ from the reference on a first-use-order table")
		}
		if !sameLabelNames(g, want) {
			t.Fatal("label names differ from the reference")
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		g2, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted graph failed: %v", err)
		}
		if err := sameStructure(g2, g); err != nil || !sameLabelIDs(g2, g) {
			t.Fatalf("round trip changed the graph: %v", err)
		}
	})
}
