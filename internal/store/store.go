// Package store persists data graphs and structural indexes in a compact
// binary format, implementing the direction the paper lists as future work:
// "how to make the M*(k)-index I/O-efficient by turning it into a
// disk-resident structure that can be loaded into memory selectively and
// incrementally during query processing."
//
// The M*(k) format stores each component index as an independent section
// with a length-prefixed header, so a reader can materialize only the
// coarse components I0..Ij it needs: a query of length j is answered
// precisely by components up to Ij, and finer components can be loaded
// later without re-reading the coarse ones (see ReadMStarUpTo and
// MStarReader).
//
// All integers are unsigned varints; node IDs inside extents are
// delta-encoded (extents are sorted), which keeps files small: the format
// is typically a few bytes per index node plus one or two bytes per extent
// member.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"mrx/internal/core"
	"mrx/internal/graph"
	"mrx/internal/index"
)

const (
	graphMagic  = "mrxG1\n"
	indexMagic  = "mrxI1\n"
	mstarMagic  = "mrxM1\n"
	frozenMagic = "mrxF1\n"

	// Sanity caps applied before any length-prefix-driven allocation, so a
	// corrupted or adversarial file can never make a reader over-allocate:
	// readers validate every prefix against these and against the remaining
	// structure (node counts, extent sizes) before calling make.
	maxSaneString = 1 << 24 // longest accepted label name
	maxSaneLabels = 1 << 24 // distinct labels per graph
	maxSaneNodes  = 1 << 31 // nodes per graph
	maxSaneK      = 1 << 20 // local similarity (baseline.KInfinity)
)

type countingWriter struct {
	w *bufio.Writer
	n int64
}

func (cw *countingWriter) uvarint(x uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	cw.n += int64(n)
	_, err := cw.w.Write(buf[:n])
	return err
}

func (cw *countingWriter) str(s string) error {
	if err := cw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	cw.n += int64(len(s))
	_, err := cw.w.WriteString(s)
	return err
}

type reader struct {
	r *bufio.Reader
}

func (rd *reader) uvarint() (uint64, error) { return binary.ReadUvarint(rd.r) }

func expectMagic(rd *reader, magic string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return err
	}
	if string(buf) != magic {
		return fmt.Errorf("store: bad magic %q, want %q", buf, magic)
	}
	return nil
}

// WriteGraph serializes a data graph.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.w.WriteString(graphMagic); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(g.NumLabels())); err != nil {
		return err
	}
	for l := 0; l < g.NumLabels(); l++ {
		if err := cw.str(g.LabelName(graph.LabelID(l))); err != nil {
			return err
		}
	}
	if err := cw.uvarint(uint64(g.NumNodes())); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if err := cw.uvarint(uint64(g.Label(graph.NodeID(v)))); err != nil {
			return err
		}
	}
	// Edges: per node, out-degree then (delta-coded child, kind) pairs.
	for v := 0; v < g.NumNodes(); v++ {
		kids := g.Children(graph.NodeID(v))
		kinds := g.ChildKinds(graph.NodeID(v))
		if err := cw.uvarint(uint64(len(kids))); err != nil {
			return err
		}
		prev := int64(0)
		for i, c := range kids {
			if err := cw.uvarint(uint64(int64(c) - prev)); err != nil {
				return err
			}
			prev = int64(c)
			if err := cw.uvarint(uint64(kinds[i])); err != nil {
				return err
			}
		}
	}
	return cw.w.Flush()
}

// ReadGraph deserializes a data graph. LabelID l is entry l of the file's
// label table, which must not name a label twice; unused entries are kept,
// so a WriteGraph/ReadGraph round trip preserves every LabelID. Errors name
// the corrupt section of the file; no input, truncated or corrupted, makes
// it panic or allocate beyond the sanity caps and what its length can hold.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: graph: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(graphMagic)) {
		return nil, fmt.Errorf("store: graph magic: want %q", graphMagic)
	}
	off, truncated := len(graphMagic), false
	// uvarint decodes the next varint. Once the input ends inside one or a
	// value overflows, it sets truncated and returns 0 until a check sees it.
	uvarint := func() uint64 {
		x, n := binary.Uvarint(data[off:])
		if n <= 0 {
			truncated = true
			return 0
		}
		off += n
		return x
	}
	// A count is checked against the bytes left before it sizes anything:
	// a label takes at least one byte, a node at least two.
	nLabels := uvarint()
	if truncated || nLabels > min(maxSaneLabels, uint64(len(data)-off)) {
		return nil, fmt.Errorf("store: graph label count %d: truncated or beyond sanity limit", nLabels)
	}
	labels := make([]string, nLabels)
	for i := range labels {
		n := uvarint()
		if truncated || n > min(maxSaneString, uint64(len(data)-off)) {
			return nil, fmt.Errorf("store: graph label %d: truncated or beyond sanity limit", i)
		}
		labels[i] = string(data[off : off+int(n)])
		off += int(n)
	}
	nNodes := uvarint()
	if truncated || nNodes > min(maxSaneNodes, uint64(len(data)-off)/2) {
		return nil, fmt.Errorf("store: graph node count %d: truncated or beyond sanity limit", nNodes)
	}
	nodeLabel := make([]graph.LabelID, nNodes)
	for v := range nodeLabel {
		li := uvarint()
		if li >= nLabels {
			return nil, fmt.Errorf("store: node %d has label %d out of range", v, li)
		}
		nodeLabel[v] = graph.LabelID(li)
	}
	if truncated {
		return nil, errors.New("store: graph node labels: truncated")
	}
	// Edges: per node, out-degree then (delta-coded child, kind) pairs. Each
	// varint ends in the one byte of it below 0x80, so counting those sizes
	// the edge arrays exactly for any file WriteGraph wrote.
	varints := 0
	for _, c := range data[off:] {
		if c < 0x80 {
			varints++
		}
	}
	maxEdges := max(0, varints-int(nNodes)) / 2
	childStart := make([]int32, nNodes+1)
	children := make([]graph.NodeID, 0, maxEdges)
	childKind := make([]graph.EdgeKind, 0, maxEdges)
	for v := uint64(0); v < nNodes; v++ {
		deg := uvarint()
		if deg > nNodes {
			return nil, fmt.Errorf("store: node %d has degree %d out of range", v, deg)
		}
		first, ascending := len(children), true
		prev := int64(0)
		for i := uint64(0); i < deg; i++ {
			// Computed, truncated and checked as the Builder-based reader did.
			child := prev + int64(uvarint())
			prev = child
			to, kind := graph.NodeID(child), uvarint()
			if child >= int64(nNodes) || to <= 0 || int64(to) >= int64(nNodes) || to == graph.NodeID(v) || kind > uint64(graph.RefEdge) {
				return nil, fmt.Errorf("store: node %d has edge to %d of kind %d: out of range, into the root or a self-loop", v, child, kind)
			}
			ascending = ascending && (len(children) == first || to > children[len(children)-1])
			children = append(children, to)
			childKind = append(childKind, graph.EdgeKind(kind))
		}
		if truncated {
			return nil, fmt.Errorf("store: graph node %d edges: truncated", v)
		}
		if !ascending {
			children, childKind = normalizeEdges(children, childKind, first)
		}
		childStart[v+1] = int32(len(children))
	}
	return graph.FromCSR(labels, nodeLabel, childStart, children, childKind)
}

// normalizeEdges does to the edges appended since first what Builder.Freeze
// does to an edge list: sort by (child, kind), keep the first per child.
// WriteGraph writes child lists strictly ascending, so they never need it.
func normalizeEdges(children []graph.NodeID, kinds []graph.EdgeKind, first int) ([]graph.NodeID, []graph.EdgeKind) {
	keys := make([]int64, 0, len(children)-first)
	for i := first; i < len(children); i++ {
		keys = append(keys, int64(children[i])<<1|int64(kinds[i]))
	}
	slices.Sort(keys)
	children, kinds = children[:first], kinds[:first]
	for i, k := range keys {
		if i == 0 || k>>1 != keys[i-1]>>1 {
			children = append(children, graph.NodeID(k>>1))
			kinds = append(kinds, graph.EdgeKind(k&1))
		}
	}
	return children, kinds
}

// writeIndexBody serializes the live nodes of an index graph (extents and
// local similarities); adjacency is rebuilt at load time.
func writeIndexBody(cw *countingWriter, ig *index.Graph) error {
	var werr error
	if werr = cw.uvarint(uint64(ig.NumNodes())); werr != nil {
		return werr
	}
	ig.ForEachNode(func(n *index.Node) {
		if werr != nil {
			return
		}
		if werr = cw.uvarint(uint64(n.K())); werr != nil {
			return
		}
		if werr = cw.uvarint(uint64(n.Size())); werr != nil {
			return
		}
		prev := int64(0)
		for _, o := range n.Extent() {
			if werr = cw.uvarint(uint64(int64(o) - prev)); werr != nil {
				return
			}
			prev = int64(o)
		}
	})
	return werr
}

func readIndexBody(rd *reader, g *graph.Graph) (*index.Graph, error) {
	extents, ks, err := readExtentsBody(rd, g)
	if err != nil {
		return nil, err
	}
	return index.FromExtents(g, extents, ks)
}

// readExtentsBody parses the shared extents-plus-similarities body; mutable
// and frozen loading both build on it, so the two paths cannot diverge in
// decoding or sanity checking.
func readExtentsBody(rd *reader, g *graph.Graph) ([][]graph.NodeID, []int, error) {
	nNodes, err := rd.uvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("store: index node count: %w", err)
	}
	if nNodes > uint64(g.NumNodes()) {
		return nil, nil, fmt.Errorf("store: %d index nodes for %d data nodes", nNodes, g.NumNodes())
	}
	extents := make([][]graph.NodeID, nNodes)
	ks := make([]int, nNodes)
	for i := uint64(0); i < nNodes; i++ {
		k, err := rd.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("store: index node %d similarity: %w", i, err)
		}
		if k > maxSaneK {
			return nil, nil, fmt.Errorf("store: index node %d has similarity %d beyond sanity limit", i, k)
		}
		ks[i] = int(k)
		size, err := rd.uvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("store: index node %d extent size: %w", i, err)
		}
		if size == 0 || size > uint64(g.NumNodes()) {
			return nil, nil, fmt.Errorf("store: extent %d has bad size %d", i, size)
		}
		extent := make([]graph.NodeID, size)
		prev := int64(0)
		for j := range extent {
			delta, err := rd.uvarint()
			if err != nil {
				return nil, nil, fmt.Errorf("store: index node %d extent: %w", i, err)
			}
			prev += int64(delta)
			if prev >= int64(g.NumNodes()) {
				return nil, nil, fmt.Errorf("store: extent %d references data node %d, beyond %d nodes", i, prev, g.NumNodes())
			}
			extent[j] = graph.NodeID(prev)
		}
		extents[i] = extent
	}
	return extents, ks, nil
}

// WriteIndex serializes a single structural index (1-index, A(k), D(k) or
// M(k)). The data graph is not embedded; supply it again at load time.
func WriteIndex(w io.Writer, ig *index.Graph) error {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.w.WriteString(indexMagic); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(ig.Data().NumNodes())); err != nil {
		return err
	}
	if err := writeIndexBody(cw, ig); err != nil {
		return err
	}
	return cw.w.Flush()
}

// ReadIndex deserializes an index over the given data graph.
func ReadIndex(r io.Reader, g *graph.Graph) (*index.Graph, error) {
	rd := &reader{r: bufio.NewReader(r)}
	if err := expectMagic(rd, indexMagic); err != nil {
		return nil, fmt.Errorf("store: index magic: %w", err)
	}
	n, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("store: index header: %w", err)
	}
	if n != uint64(g.NumNodes()) {
		return nil, fmt.Errorf("store: index built over %d data nodes, graph has %d", n, g.NumNodes())
	}
	ig, err := readIndexBody(rd, g)
	if err != nil {
		return nil, err
	}
	// Similarities are data, not derivable: a corrupted file can encode k
	// values that break the structural invariants (e.g. P3). Reject at load
	// rather than letting a bad index serve wrong answers. M*(k) loads get
	// the same check inside MStarFromComponents.
	if err := ig.Validate(false); err != nil {
		return nil, fmt.Errorf("store: index: %w", err)
	}
	return ig, nil
}

// WriteFrozen serializes a frozen index snapshot. The body is identical to
// the mutable index format (extents and similarities in node order — frozen
// node order is ascending retired NodeID, which is ForEachNode order), so a
// snapshot frozen from a graph writes the same bytes as the graph itself;
// only the magic differs, announcing that the fast loader applies. CSR
// adjacency and label ranges are derived at load time: storing them would
// roughly double the file for data that one linear pass over flat arrays
// reconstructs.
func WriteFrozen(w io.Writer, fz *index.Frozen) error {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := cw.w.WriteString(frozenMagic); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(fz.Data().NumNodes())); err != nil {
		return err
	}
	if err := cw.uvarint(uint64(fz.NumNodes())); err != nil {
		return err
	}
	for v := 0; v < fz.NumNodes(); v++ {
		id := index.FrozenID(v)
		if err := cw.uvarint(uint64(fz.K(id))); err != nil {
			return err
		}
		if err := cw.uvarint(uint64(fz.Size(id))); err != nil {
			return err
		}
		prev := int64(0)
		for _, o := range fz.Extent(id) {
			if err := cw.uvarint(uint64(int64(o) - prev)); err != nil {
				return err
			}
			prev = int64(o)
		}
	}
	return cw.w.Flush()
}

// ReadFrozen deserializes a frozen index snapshot over g — the persistence
// fast path: the snapshot is rebuilt through FrozenFromExtents with flat-
// array CSR wiring, never materializing a mutable graph or its adjacency
// maps. Shape invariants (disjoint label-homogeneous cover, P2 wiring) hold
// by construction; the similarity invariant P3 is checked over the CSR
// before the snapshot is returned, mirroring ReadIndex's Validate.
func ReadFrozen(r io.Reader, g *graph.Graph) (*index.Frozen, error) {
	rd := &reader{r: bufio.NewReader(r)}
	if err := expectMagic(rd, frozenMagic); err != nil {
		return nil, fmt.Errorf("store: frozen magic: %w", err)
	}
	n, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("store: frozen header: %w", err)
	}
	if n != uint64(g.NumNodes()) {
		return nil, fmt.Errorf("store: frozen index built over %d data nodes, graph has %d", n, g.NumNodes())
	}
	extents, ks, err := readExtentsBody(rd, g)
	if err != nil {
		return nil, err
	}
	fz, err := index.FrozenFromExtents(g, extents, ks)
	if err != nil {
		return nil, fmt.Errorf("store: frozen: %w", err)
	}
	if err := fz.CheckP3(); err != nil {
		return nil, fmt.Errorf("store: frozen: %w", err)
	}
	return fz, nil
}

// WriteMStar serializes an M*(k)-index as independent per-component
// sections, each preceded by its byte length so readers can skip or stop.
func WriteMStar(w io.Writer, ms *core.MStar) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(mstarMagic); err != nil {
		return err
	}
	head := &countingWriter{w: bw}
	if err := head.uvarint(uint64(ms.Data().NumNodes())); err != nil {
		return err
	}
	if err := head.uvarint(uint64(ms.NumComponents())); err != nil {
		return err
	}
	for i := 0; i < ms.NumComponents(); i++ {
		// Serialize the component to an in-memory section first so its byte
		// length can prefix it.
		var section sectionBuffer
		cw := &countingWriter{w: bufio.NewWriter(&section)}
		if err := writeIndexBody(cw, ms.Component(i)); err != nil {
			return err
		}
		if err := cw.w.Flush(); err != nil {
			return err
		}
		if err := head.uvarint(uint64(len(section))); err != nil {
			return err
		}
		if _, err := bw.Write(section); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type sectionBuffer []byte

func (s *sectionBuffer) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// MStarReader loads M*(k) components selectively: coarse components first,
// finer ones on demand, without re-reading earlier sections.
type MStarReader struct {
	rd         *reader
	g          *graph.Graph
	total      int
	nextToLoad int
	comps      []*index.Graph
}

// OpenMStar prepares selective loading of an M*(k)-index over g.
// It reads only the header.
func OpenMStar(r io.Reader, g *graph.Graph) (*MStarReader, error) {
	rd := &reader{r: bufio.NewReader(r)}
	if err := expectMagic(rd, mstarMagic); err != nil {
		return nil, fmt.Errorf("store: M*(k) magic: %w", err)
	}
	n, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("store: M*(k) header: %w", err)
	}
	if n != uint64(g.NumNodes()) {
		return nil, fmt.Errorf("store: M*(k)-index built over %d data nodes, graph has %d", n, g.NumNodes())
	}
	total, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("store: M*(k) header: %w", err)
	}
	if total == 0 || total > 64 {
		return nil, fmt.Errorf("store: implausible component count %d", total)
	}
	return &MStarReader{rd: rd, g: g, total: int(total)}, nil
}

// NumComponents returns the number of components in the file.
func (mr *MStarReader) NumComponents() int { return mr.total }

// Loaded returns how many components have been materialized so far.
func (mr *MStarReader) Loaded() int { return len(mr.comps) }

// LoadUpTo materializes components I0..Ij (inclusive) and returns an
// M*(k)-index over them. Components already loaded are reused; the returned
// index answers queries of length ≤ j exactly as the full index would
// (longer queries fall back to validated evaluation in Ij).
func (mr *MStarReader) LoadUpTo(j int) (*core.MStar, error) {
	if j >= mr.total {
		j = mr.total - 1
	}
	for len(mr.comps) <= j {
		size, err := mr.rd.uvarint()
		if err != nil {
			return nil, fmt.Errorf("store: M*(k) component I%d length: %w", len(mr.comps), err)
		}
		section := &reader{r: bufio.NewReader(io.LimitReader(mr.rd.r, int64(size)))}
		comp, err := readIndexBody(section, mr.g)
		if err != nil {
			return nil, fmt.Errorf("store: M*(k) component I%d: %w", len(mr.comps), err)
		}
		// Drain any buffered remainder of the section.
		if _, err := io.Copy(io.Discard, section.r); err != nil {
			return nil, fmt.Errorf("store: M*(k) component I%d drain: %w", len(mr.comps), err)
		}
		mr.comps = append(mr.comps, comp)
		mr.nextToLoad++
	}
	return core.MStarFromComponents(mr.g, mr.comps[:j+1])
}

// ReadMStar loads a complete M*(k)-index.
func ReadMStar(r io.Reader, g *graph.Graph) (*core.MStar, error) {
	mr, err := OpenMStar(r, g)
	if err != nil {
		return nil, err
	}
	return mr.LoadUpTo(mr.total - 1)
}
