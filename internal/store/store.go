// Package store persists data graphs in a compact binary format (magic
// "mrxG1"). Structural indexes are not stored here: package mmapstore
// writes the one on-disk index format, a checksummed snapshot with one
// directory entry per M*(k) component, which a reader maps and serves
// without deserializing.
//
// All integers are unsigned varints; the children of a node are
// delta-encoded (they are sorted), which keeps files small: a few bytes per
// node and per edge.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"

	"mrx/internal/graph"
)

const (
	graphMagic = "mrxG1\n"

	// Sanity caps applied before any length-prefix-driven allocation, so a
	// corrupted or adversarial file can never make a reader over-allocate:
	// the reader validates every prefix against these and against the bytes
	// left before calling make.
	maxSaneString = 1 << 24 // longest accepted label name
	maxSaneLabels = 1 << 24 // distinct labels per graph
	maxSaneNodes  = 1 << 31 // nodes per graph
)

type varintWriter struct {
	w *bufio.Writer
}

func (vw *varintWriter) uvarint(x uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	_, err := vw.w.Write(buf[:n])
	return err
}

func (vw *varintWriter) str(s string) error {
	if err := vw.uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := vw.w.WriteString(s)
	return err
}

// WriteGraph serializes a data graph.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	cw := &varintWriter{w: bufio.NewWriter(w)}
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

// decoder reads the varints of a graph file; rest is what is left of it.
// Once the input ends inside a varint or a value overflows, it sets
// truncated and returns 0 until a check sees it.
type decoder struct {
	rest      []byte
	truncated bool
}

// uvarint decodes the next varint. Most varints of a graph file are one
// byte — labels, degrees, kinds and the deltas of sorted child lists — so
// that case is decoded here; a byte below 0x80 is exactly what
// binary.Uvarint would decode with length 1.
func (d *decoder) uvarint() uint64 {
	if len(d.rest) > 0 && d.rest[0] < 0x80 {
		x := d.rest[0]
		d.rest = d.rest[1:]
		return uint64(x)
	}
	return d.uvarintLong()
}

// uvarintLong is uvarint for a varint of two bytes or more, or none.
func (d *decoder) uvarintLong() uint64 {
	x, n := binary.Uvarint(d.rest)
	if n <= 0 {
		d.truncated = true
		return 0
	}
	d.rest = d.rest[n:]
	return x
}

// readAll reads r to its end. A regular file is read into a buffer sized
// by its Stat size, so reading it takes no regrowth and no copy; any other
// reader, or a file too large for an int32 size, grows the buffer as
// io.ReadAll does.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() <= math.MaxInt32-bytes.MinRead {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("store: graph: %w", err)
	}
	return buf.Bytes(), nil
}

// ReadGraph deserializes a data graph. LabelID l is entry l of the file's
// label table, which must not name a label twice; unused entries are kept,
// so a WriteGraph/ReadGraph round trip preserves every LabelID. Errors name
// the corrupt section of the file; no input, truncated or corrupted, makes
// it panic or allocate beyond the sanity caps and what its length can hold.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(graphMagic)) {
		return nil, fmt.Errorf("store: graph magic: want %q", graphMagic)
	}
	d := decoder{rest: data[len(graphMagic):]}
	// A count is checked against the bytes left before it sizes anything:
	// a label takes at least one byte, a node at least two.
	nLabels := d.uvarint()
	if d.truncated || nLabels > min(maxSaneLabels, uint64(len(d.rest))) {
		return nil, fmt.Errorf("store: graph label count %d: truncated or beyond sanity limit", nLabels)
	}
	labels := make([]string, nLabels)
	for i := range labels {
		n := d.uvarint()
		if d.truncated || n > min(maxSaneString, uint64(len(d.rest))) {
			return nil, fmt.Errorf("store: graph label %d: truncated or beyond sanity limit", i)
		}
		labels[i] = string(d.rest[:n])
		d.rest = d.rest[n:]
	}
	nNodes := d.uvarint()
	if d.truncated || nNodes > min(maxSaneNodes, uint64(len(d.rest))/2) {
		return nil, fmt.Errorf("store: graph node count %d: truncated or beyond sanity limit", nNodes)
	}
	nodeLabel := make([]graph.LabelID, nNodes)
	for v := range nodeLabel {
		li := d.uvarint()
		if li >= nLabels {
			return nil, fmt.Errorf("store: node %d has label %d out of range", v, li)
		}
		nodeLabel[v] = graph.LabelID(li)
	}
	if d.truncated {
		return nil, errors.New("store: graph node labels: truncated")
	}
	// Edges: per node, out-degree then (delta-coded child, kind) pairs. Each
	// varint ends in the one byte of it below 0x80, so counting those sizes
	// the edge arrays exactly for any file WriteGraph wrote.
	varints := 0
	for _, c := range d.rest {
		if c < 0x80 {
			varints++
		}
	}
	maxEdges := max(0, varints-int(nNodes)) / 2
	childStart := make([]int32, nNodes+1)
	children := make([]graph.NodeID, 0, maxEdges)
	childKind := make([]graph.EdgeKind, 0, maxEdges)
	for v := uint64(0); v < nNodes; v++ {
		deg := d.uvarint()
		if deg > nNodes {
			return nil, fmt.Errorf("store: node %d has degree %d out of range", v, deg)
		}
		first, ascending := len(children), true
		prev := int64(0)
		for i := uint64(0); i < deg; i++ {
			// Computed, truncated and checked as the Builder-based reader did.
			child := prev + int64(d.uvarint())
			prev = child
			to, kind := graph.NodeID(child), d.uvarint()
			if child >= int64(nNodes) || to <= 0 || int64(to) >= int64(nNodes) || to == graph.NodeID(v) || kind > uint64(graph.RefEdge) {
				return nil, fmt.Errorf("store: node %d has edge to %d of kind %d: out of range, into the root or a self-loop", v, child, kind)
			}
			ascending = ascending && (len(children) == first || to > children[len(children)-1])
			children = append(children, to)
			childKind = append(childKind, graph.EdgeKind(kind))
		}
		if d.truncated {
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
