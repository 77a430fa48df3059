package mmapstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/index"
)

// Options configures snapshot loading.
type Options struct {
	// Trusted skips the per-section checksums and the deep structural walk
	// (index.Frozen.Verify and the nesting check), making open linear in
	// the index nodes — core.AssembleFrozenMStar still builds the subnode
	// links, bounds-checked — instead of in the file and the data graph.
	// The default full verification is one pass per component, components
	// in parallel —
	// about a millisecond per component per 100k data nodes — so Trusted is
	// an optimization for the engine reopening its own atomic publish many
	// times a second, not a precondition for a usable cold start. It is only
	// sound for files this process (or its deployment pipeline) published
	// itself: parsing alone proves the sections are in-bounds, not that
	// their contents are sane.
	Trusted bool

	// ForceCopy decodes every section onto the heap even when a zero-copy
	// view would be possible. Tests use it to pin down view/decode
	// equivalence; it is also the escape hatch if a platform's unaligned-
	// access behavior is ever in doubt.
	ForceCopy bool

	// MStar carries the query-evaluation options (strategy, MaxK,
	// parallelism) for the loaded view. They are serving configuration, not
	// index state, so the format does not store them.
	MStar core.MStarOptions
}

// parse validates data as an mmapstore snapshot over g and wires a
// FrozenMStar directly over it. Raw int32 sections become zero-copy typed
// views when the file's byte order matches the host's and the section is
// 4-byte-aligned; otherwise (foreign-endian file, unaligned buffer,
// ForceCopy) they are decoded onto the heap. Var-delta extent arenas are
// always decoded. Every offset and size is bounds-checked against the
// buffer before any access, so no input — truncated, bit-flipped, or
// adversarial — can cause a panic or an out-of-bounds read.
func parse(data []byte, g *graph.Graph, o Options) (*core.FrozenMStar, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if h.dataNodes != uint64(g.NumNodes()) || h.dataEdges != uint64(g.NumEdges()) ||
		h.dataLabels != uint64(g.NumLabels()) {
		return nil, fmt.Errorf("mmapstore: snapshot built over %d nodes/%d edges/%d labels, graph has %d/%d/%d",
			h.dataNodes, h.dataEdges, h.dataLabels, g.NumNodes(), g.NumEdges(), g.NumLabels())
	}
	ents, err := parseDirectory(data, h)
	if err != nil {
		return nil, err
	}
	comps := make([]*index.Frozen, h.components)
	// A component's checksums, wiring and deep walk read nothing but its own
	// 12 sections and the shared read-only data graph, so untrusted opens
	// run one component per core.
	component := func(i int) error {
		secs := ents[i*numSections : (i+1)*numSections]
		if !o.Trusted {
			for _, e := range secs {
				if got := crc32.Checksum(data[e.off:e.off+e.size], castagnoli); got != e.crc {
					return fmt.Errorf("mmapstore: section %s checksum mismatch", e.name())
				}
			}
		}
		fz, err := buildComponent(data, secs, g, h.order, o.ForceCopy)
		if err != nil {
			return fmt.Errorf("mmapstore: component I%d: %w", i, err)
		}
		comps[i] = fz
		if !o.Trusted {
			if err := fz.Verify(); err != nil {
				return fmt.Errorf("mmapstore: component I%d: %w", i, err)
			}
		}
		return nil
	}
	if o.Trusted {
		for i := range comps {
			if err := component(i); err != nil {
				return nil, err
			}
		}
	} else if err := lowestError(len(comps), component); err != nil {
		return nil, err
	}
	fm, err := core.AssembleFrozenMStar(g, comps, o.MStar, !o.Trusted)
	if err != nil {
		return nil, fmt.Errorf("mmapstore: %w", err)
	}
	return fm, nil
}

// lowestError runs fn(0..n-1) on min(GOMAXPROCS, n) goroutines, joins them
// all, and returns the error of the lowest index that failed — what a
// sequential loop would return, so rejection does not depend on scheduling.
// Indices are claimed in ascending order and nothing new is claimed once any
// call has failed: whatever was skipped lies above the failed index.
func lowestError(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parseHeader decodes and validates the fixed 64-byte header, detecting the
// file's byte order from the raw bytes of the byte-order mark.
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("mmapstore: %d bytes, need at least a %d-byte header", len(data), headerSize)
	}
	if string(data[0:7]) != magic {
		return h, fmt.Errorf("mmapstore: bad magic %q", data[0:7])
	}
	if data[7] != formatVersion {
		return h, fmt.Errorf("mmapstore: format version %d, this reader handles %d", data[7], formatVersion)
	}
	switch {
	case bytes.Equal(data[8:12], []byte{0x04, 0x03, 0x02, 0x01}):
		h.order = binary.LittleEndian
	case bytes.Equal(data[8:12], []byte{0x01, 0x02, 0x03, 0x04}):
		h.order = binary.BigEndian
	default:
		return h, fmt.Errorf("mmapstore: bad byte-order mark % x", data[8:12])
	}
	h.flags = h.order.Uint32(data[12:16])
	h.fileSize = h.order.Uint64(data[16:24])
	h.dataNodes = h.order.Uint64(data[24:32])
	h.dataEdges = h.order.Uint64(data[32:40])
	h.dataLabels = h.order.Uint64(data[40:48])
	h.components = h.order.Uint32(data[48:52])
	h.sections = h.order.Uint32(data[52:56])
	h.dirCRC = h.order.Uint32(data[56:60])
	if h.fileSize != uint64(len(data)) {
		return h, fmt.Errorf("mmapstore: header says %d bytes, file has %d", h.fileSize, len(data))
	}
	if h.components == 0 || h.components > maxComponents {
		return h, fmt.Errorf("mmapstore: implausible component count %d", h.components)
	}
	if h.sections != h.components*numSections {
		return h, fmt.Errorf("mmapstore: %d sections for %d components, want %d",
			h.sections, h.components, h.components*numSections)
	}
	return h, nil
}

// parseDirectory decodes and validates every directory entry: the checksum
// over the directory block itself, the fixed (component, kind) order, and
// for each payload its alignment, bounds, encoding, and count/size
// agreement. After it returns, data[e.off:e.off+e.size] is in-bounds for
// every entry.
func parseDirectory(data []byte, h header) ([]dirEntry, error) {
	dirLen := uint64(h.sections) * dirEntrySize
	if uint64(len(data)) < headerSize+dirLen {
		return nil, fmt.Errorf("mmapstore: file truncated inside the section directory")
	}
	dir := data[headerSize : headerSize+dirLen]
	if got := crc32.Checksum(dir, castagnoli); got != h.dirCRC {
		return nil, fmt.Errorf("mmapstore: directory checksum mismatch")
	}
	ents := make([]dirEntry, h.sections)
	prevEnd := headerSize + dirLen
	for i := range ents {
		e := getDirEntry(dir[i*dirEntrySize:], h.order)
		if e.comp != uint32(i/numSections) || e.kind != uint32(i%numSections) {
			return nil, fmt.Errorf("mmapstore: directory entry %d is %s, want I%d/%s",
				i, e.name(), i/numSections, sectionName[i%numSections])
		}
		if e.off%payloadAlign != 0 {
			return nil, fmt.Errorf("mmapstore: section %s at unaligned offset %d", e.name(), e.off)
		}
		if e.off < prevEnd || e.off > uint64(len(data)) || e.size > uint64(len(data))-e.off {
			return nil, fmt.Errorf("mmapstore: section %s [%d,+%d) out of bounds", e.name(), e.off, e.size)
		}
		if e.count > maxSaneCount {
			return nil, fmt.Errorf("mmapstore: section %s count %d exceeds sanity limit", e.name(), e.count)
		}
		switch e.enc {
		case encRaw32:
			if e.size != e.count*4 {
				return nil, fmt.Errorf("mmapstore: section %s has %d bytes for %d elements", e.name(), e.size, e.count)
			}
		case encVarDelta:
			if e.kind != secExtentArena {
				return nil, fmt.Errorf("mmapstore: section %s cannot be delta-encoded", e.name())
			}
			// Every arena member costs at least one encoded byte, so the
			// count a hostile directory claims is bounded by the payload it
			// actually brought — checked before the decoder allocates.
			if e.size < e.count {
				return nil, fmt.Errorf("mmapstore: section %s has %d bytes for %d elements", e.name(), e.size, e.count)
			}
		default:
			return nil, fmt.Errorf("mmapstore: section %s has unknown encoding %d", e.name(), e.enc)
		}
		// Counts that the header already determines are pinned here, before
		// anything is allocated or decoded.
		switch e.kind {
		case secExtentArena, secNodeOf:
			if e.count != h.dataNodes {
				return nil, fmt.Errorf("mmapstore: section %s has %d entries for %d data nodes", e.name(), e.count, h.dataNodes)
			}
		case secLabelStart:
			if e.count != h.dataLabels+1 {
				return nil, fmt.Errorf("mmapstore: section %s has %d offsets for %d labels", e.name(), e.count, h.dataLabels)
			}
		}
		prevEnd = e.off + e.size
		ents[i] = e
	}
	return ents, nil
}

// buildComponent wires one index.Frozen over a component's 12 sections.
func buildComponent(data []byte, ents []dirEntry, g *graph.Graph, order binary.ByteOrder, forceCopy bool) (*index.Frozen, error) {
	payload := func(kind int) []byte {
		e := ents[kind]
		return data[e.off : e.off+e.size]
	}
	// The arrays are assembled in one composite literal — never assigned
	// field by field — so the snapshot-immutability discipline (snapshotmut)
	// holds by construction: the value exists fully formed or not at all.
	extentStart := int32Section[int32](payload(secExtentStart), order, forceCopy)
	var arena []graph.NodeID
	if e := ents[secExtentArena]; e.enc == encVarDelta {
		var err error
		if arena, err = varDeltaDecode(payload(secExtentArena), extentStart, int(e.count)); err != nil {
			return nil, err
		}
	} else {
		arena = int32Section[graph.NodeID](payload(secExtentArena), order, forceCopy)
	}
	return index.FrozenFromArrays(g, index.FrozenArrays{
		Retired:     int32Section[index.NodeID](payload(secRetired), order, forceCopy),
		Ks:          int32Section[int32](payload(secKs), order, forceCopy),
		Labels:      int32Section[graph.LabelID](payload(secLabels), order, forceCopy),
		ExtentStart: extentStart,
		ExtentArena: arena,
		ChildStart:  int32Section[int32](payload(secChildStart), order, forceCopy),
		Children:    int32Section[index.FrozenID](payload(secChildren), order, forceCopy),
		ParentStart: int32Section[int32](payload(secParentStart), order, forceCopy),
		Parents:     int32Section[index.FrozenID](payload(secParents), order, forceCopy),
		LabelStart:  int32Section[int32](payload(secLabelStart), order, forceCopy),
		LabelNodes:  int32Section[index.FrozenID](payload(secLabelNodes), order, forceCopy),
		NodeOf:      int32Section[index.FrozenID](payload(secNodeOf), order, forceCopy),
	})
}

// varDeltaDecode reverses varDeltaEncode onto the heap. The start offsets
// may come straight from an unverified file, so every boundary is clamped
// before use; decoding errors out on truncation, trailing bytes, negative
// ranges, or values outside int32 — it never panics or reads outside b.
func varDeltaDecode(b []byte, start []int32, count int) ([]graph.NodeID, error) {
	out := make([]graph.NodeID, count)
	pos := 0
	for i := 0; i+1 < len(start); i++ {
		lo, hi := int(start[i]), int(start[i+1])
		if lo < 0 || hi < lo || hi > count {
			return nil, fmt.Errorf("extent %d spans [%d,%d) of a %d-entry arena", i, lo, hi, count)
		}
		prev := int64(0)
		for j := lo; j < hi; j++ {
			v, n := binary.Uvarint(b[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("extent arena truncated at byte %d", pos)
			}
			pos += n
			prev += int64(v)
			if prev > math.MaxInt32 {
				return nil, fmt.Errorf("extent %d decodes data node %d beyond int32", i, prev)
			}
			out[j] = graph.NodeID(prev)
		}
	}
	if pos != len(b) {
		return nil, fmt.Errorf("extent arena has %d trailing bytes", len(b)-pos)
	}
	return out, nil
}
