package mrx

import (
	"io"

	"mrx/internal/mmapstore"
	"mrx/internal/store"
)

// WriteGraph serializes a data graph in the compact binary format of
// package store.
func WriteGraph(w io.Writer, g *Graph) error { return store.WriteGraph(w, g) }

// ReadGraph deserializes a data graph. A graph WriteGraph wrote comes back
// with the same LabelIDs, including labels no node uses.
func ReadGraph(r io.Reader) (*Graph, error) { return store.ReadGraph(r) }

// WriteIndex serializes a single structural index (1-index, A(k), D(k) or
// M(k)); the data graph is supplied again at load time.
func WriteIndex(w io.Writer, ig *Index) error { return store.WriteIndex(w, ig) }

// ReadIndex deserializes an index over its data graph.
func ReadIndex(r io.Reader, g *Graph) (*Index, error) { return store.ReadIndex(r, g) }

// WriteMStar serializes an M*(k)-index as independently loadable
// per-component sections.
func WriteMStar(w io.Writer, ms *MStar) error { return store.WriteMStar(w, ms) }

// ReadMStar loads a complete M*(k)-index.
func ReadMStar(r io.Reader, g *Graph) (*MStar, error) { return store.ReadMStar(r, g) }

// WriteFrozen serializes a frozen index snapshot; its body encoding matches
// WriteIndex, but the magic selects the fast loader.
func WriteFrozen(w io.Writer, fz *FrozenIndex) error { return store.WriteFrozen(w, fz) }

// ReadFrozen deserializes a frozen index snapshot over g without ever
// materializing a mutable index graph: the CSR adjacency is wired from flat
// arrays — the persistence fast path.
func ReadFrozen(r io.Reader, g *Graph) (*FrozenIndex, error) { return store.ReadFrozen(r, g) }

// MStarReader loads M*(k) components selectively — the disk-resident,
// load-what-the-query-needs operation the paper describes as future work.
type MStarReader = store.MStarReader

// OpenMStar prepares selective loading of a serialized M*(k)-index:
// the header is read eagerly, components on demand via LoadUpTo.
func OpenMStar(r io.Reader, g *Graph) (*MStarReader, error) { return store.OpenMStar(r, g) }

// SnapshotWriteOptions configures the memory-mapped snapshot encoder
// (internal/mmapstore): page-aligned, checksummed sections that a reader
// maps and serves zero-copy.
type SnapshotWriteOptions = mmapstore.WriteOptions

// SnapshotOpenOptions configures snapshot loading: full verification by
// default, Trusted for O(1) reopen of self-published files, ForceCopy to
// decode instead of taking views.
type SnapshotOpenOptions = mmapstore.Options

// Snapshot is an open memory-mapped frozen M*(k) snapshot; its FrozenMStar
// serves queries directly over the mapped bytes.
type Snapshot = mmapstore.Snapshot

// WriteSnapshot encodes a frozen M*(k)-index in the memory-mapped snapshot
// format.
func WriteSnapshot(w io.Writer, fm *FrozenMStar, o SnapshotWriteOptions) error {
	return mmapstore.Write(w, fm, o)
}

// WriteSnapshotFile writes and fsyncs a snapshot file in place (no
// atomicity; see PublishSnapshot for crash-safe replacement).
func WriteSnapshotFile(path string, fm *FrozenMStar, o SnapshotWriteOptions) error {
	return mmapstore.WriteFile(path, fm, o)
}

// PublishSnapshot atomically replaces path with a new snapshot
// (write-temp + fsync + rename): a reader never observes a torn file, and
// live mappings of the previous generation stay valid.
func PublishSnapshot(path string, fm *FrozenMStar, o SnapshotWriteOptions) error {
	return mmapstore.Publish(path, fm, o)
}

// OpenSnapshot memory-maps a snapshot file over its data graph and wires a
// zero-copy FrozenMStar view onto the mapped bytes.
func OpenSnapshot(path string, g *Graph, o SnapshotOpenOptions) (*Snapshot, error) {
	return mmapstore.Open(path, g, o)
}

// OpenSnapshotBytes is OpenSnapshot over an in-memory buffer.
func OpenSnapshotBytes(data []byte, g *Graph, o SnapshotOpenOptions) (*Snapshot, error) {
	return mmapstore.OpenBytes(data, g, o)
}
