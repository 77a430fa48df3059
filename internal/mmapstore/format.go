// Package mmapstore persists frozen M*(k) snapshots in a page-aligned,
// offset-addressed binary format built to be memory-mapped and served with
// zero deserialization. Where package store streams varints through a
// decoder and rebuilds every array on the heap (load time linear in index
// size), mmapstore lays the exact flat arrays of index.Frozen out in the
// file — 64-byte-aligned, native byte order, addressed by a byte-offset
// section directory — so the reader can mmap the file and wire a
// core.FrozenMStar directly over the mapped bytes. Nothing is deserialized:
// the kernel pages index data in on first touch, and an index larger than
// RAM serves from disk with the page cache as its buffer pool. A trusted
// open is linear in the index nodes (it builds the subnode links); the
// default verified open reads everything once.
//
// File layout (all multi-byte fields in the file's byte order, which the
// reader detects from the byte-order mark):
//
//	offset 0    magic "mrxMM1\n" + format version byte
//	offset 8    64-byte header: byte-order mark, flags, file size,
//	            data-graph binding (nodes/edges/labels), component count,
//	            section count, directory checksum
//	offset 64   section directory: one 40-byte entry per section
//	            {kind, component, encoding, crc32c, element count,
//	             byte offset, byte size}
//	aligned     section payloads, each 64-byte-aligned, zero-padded
//
// Every component contributes the same 12 sections in a fixed order — the
// arrays of index.FrozenArrays, with each offset array directly before the
// arena it indexes so a decoding pass always has its boundaries. Payloads
// are either raw int32 arrays (zero-copy view candidates) or, for extent
// arenas written with CompactExtents, varuint deltas (decoded to the heap
// at open; everything else still serves from the mapping).
//
// Safety model: Open fully verifies untrusted files by default — directory
// and per-section checksums and index.Frozen.VerifyShape per component,
// then core.AssembleFrozenMStar's nesting check and edge check, the finest
// component's against the data graph and every coarser one's through its
// finer neighbour — so a truncated, bit-flipped, or adversarial file is
// rejected with an error, never a panic, over-read, or silently wrong
// answer. The whole check is linear in the file plus the data graph, reads
// the data graph's edges once, and runs on every core. Options.Trusted skips the checksums and
// the deep walk for files the process just published itself, keeping
// reopen linear in the index nodes alone (the subnode links are built at
// assembly, bounds-checked).
package mmapstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	magic         = "mrxMM1\n" // 7 bytes; followed by the version byte
	formatVersion = 1

	headerSize   = 64
	dirEntrySize = 40
	payloadAlign = 64

	// byteOrderMark is written as a uint32 in the file's byte order; the
	// reader inspects the raw bytes to learn that order.
	byteOrderMark = 0x01020304

	// maxComponents matches package store's cap on plausible component
	// counts (resolutions beyond this are nonsensical for M*(k)).
	maxComponents = 64

	// maxSaneCount caps any section's element count before allocation or
	// multiplication, so a hostile directory cannot provoke overflow or
	// over-allocation.
	maxSaneCount = 1 << 28
)

// Section kinds, in file order per component. ExtentStart precedes
// ExtentArena and LabelStart precedes LabelNodes so decoders always see an
// arena's boundaries first.
const (
	secRetired = iota
	secKs
	secLabels
	secExtentStart
	secExtentArena
	secChildStart
	secChildren
	secParentStart
	secParents
	secLabelStart
	secLabelNodes
	secNodeOf
	numSections
)

var sectionName = [numSections]string{
	"retired", "ks", "labels", "extent-start", "extent-arena",
	"child-start", "children", "parent-start", "parents",
	"label-start", "label-nodes", "node-of",
}

// Payload encodings.
const (
	encRaw32    = 0 // raw int32 array in the file's byte order
	encVarDelta = 1 // uvarint deltas, prev reset per extent (arenas only)
)

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded 64-byte file header.
type header struct {
	order      binary.ByteOrder
	flags      uint32
	fileSize   uint64
	dataNodes  uint64
	dataEdges  uint64
	dataLabels uint64
	components uint32
	sections   uint32
	dirCRC     uint32
}

// dirEntry is one decoded 40-byte section-directory entry.
type dirEntry struct {
	kind  uint32
	comp  uint32
	enc   uint32
	crc   uint32
	count uint64
	off   uint64
	size  uint64
}

func (e dirEntry) name() string {
	if e.kind < numSections {
		return fmt.Sprintf("I%d/%s", e.comp, sectionName[e.kind])
	}
	return fmt.Sprintf("I%d/kind%d", e.comp, e.kind)
}

func putDirEntry(b []byte, order binary.ByteOrder, e dirEntry) {
	order.PutUint32(b[0:4], e.kind)
	order.PutUint32(b[4:8], e.comp)
	order.PutUint32(b[8:12], e.enc)
	order.PutUint32(b[12:16], e.crc)
	order.PutUint64(b[16:24], e.count)
	order.PutUint64(b[24:32], e.off)
	order.PutUint64(b[32:40], e.size)
}

func getDirEntry(b []byte, order binary.ByteOrder) dirEntry {
	return dirEntry{
		kind:  order.Uint32(b[0:4]),
		comp:  order.Uint32(b[4:8]),
		enc:   order.Uint32(b[8:12]),
		crc:   order.Uint32(b[12:16]),
		count: order.Uint64(b[16:24]),
		off:   order.Uint64(b[24:32]),
		size:  order.Uint64(b[32:40]),
	}
}

// align64 rounds n up to the next multiple of payloadAlign.
func align64(n uint64) uint64 {
	return (n + payloadAlign - 1) &^ uint64(payloadAlign-1)
}
