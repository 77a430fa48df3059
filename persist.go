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

// SnapshotWriteOptions configures the memory-mapped snapshot encoder
// (internal/mmapstore): page-aligned, checksummed sections that a reader
// maps and serves zero-copy.
type SnapshotWriteOptions = mmapstore.WriteOptions

// SnapshotOpenOptions configures snapshot loading: full verification by
// default, Trusted for an O(index nodes) reopen of self-published files, ForceCopy to
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
