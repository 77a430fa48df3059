package mmapstore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"mrx/internal/core"
	"mrx/internal/graph"
)

// Snapshot is a loaded snapshot file together with the memory backing it.
// The FrozenMStar it exposes serves queries directly over that memory, so
// the backing must outlive every reader of the view. Two mechanisms ensure
// it:
//
//   - a GC cleanup attached to the FrozenMStar unmaps the file when the
//     view becomes unreachable — the republish lifecycle: an engine swaps
//     in a new generation, drops its reference, and the old mapping goes
//     away once in-flight queries drain (query results copy extents out of
//     the mapping, so answers never alias it);
//   - Close unmaps immediately, for callers that own the lifecycle and
//     know no query is in flight (a server shutting down). After Close the
//     FrozenMStar must not be used.
type Snapshot struct {
	fm      *core.FrozenMStar
	data    []byte
	mapped  bool
	cleanup runtime.Cleanup

	once     sync.Once
	closeErr error
}

// FrozenMStar returns the loaded view. It stays valid until Close (or, if
// Close is never called, for as long as it is reachable).
func (s *Snapshot) FrozenMStar() *core.FrozenMStar { return s.fm }

// Mapped reports whether the snapshot serves from a memory-mapped file
// (false on platforms without mmap support or for OpenBytes).
func (s *Snapshot) Mapped() bool { return s.mapped }

// SizeBytes returns the size of the backing file or buffer.
func (s *Snapshot) SizeBytes() int64 { return int64(len(s.data)) }

// Sections returns the number of checksummed sections in the file: a fixed
// set per component.
func (s *Snapshot) Sections() int { return s.fm.NumComponents() * numSections }

// Close releases the mapping. The caller must guarantee that no query is
// running against the view and that it will not be queried again; the
// GC-driven cleanup path (simply dropping all references) is the safe
// alternative when in-flight readers may exist. Close is idempotent.
func (s *Snapshot) Close() error {
	s.once.Do(func() {
		if s.mapped {
			s.cleanup.Stop()
			s.closeErr = munmapBytes(s.data)
		}
		s.data = nil
	})
	return s.closeErr
}

// Open maps the snapshot file at path and wires a FrozenMStar over the
// mapping (on platforms without mmap the file is read into memory
// instead). By default the file is fully verified — checksums plus a deep
// structural walk — before a view is returned; Options.Trusted reduces
// open to the parse plus the bounds-checked subnode links, O(index nodes),
// for files the process published itself.
func Open(path string, g *graph.Graph, o Options) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapstore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapstore: %w", err)
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("mmapstore: %s is %d bytes, not a snapshot", path, size)
	}
	const maxMap = 1 << 46
	if size > maxMap {
		return nil, fmt.Errorf("mmapstore: %s is %d bytes, beyond the %d mapping cap", path, size, int64(maxMap))
	}
	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("mmapstore: map %s: %w", path, err)
	}
	fm, err := parse(data, g, o)
	if err != nil {
		if mapped {
			_ = munmapBytes(data)
		}
		return nil, err
	}
	s := &Snapshot{fm: fm, data: data, mapped: mapped}
	if mapped {
		s.cleanup = runtime.AddCleanup(fm, func(b []byte) { _ = munmapBytes(b) }, data)
	}
	return s, nil
}

// OpenBytes wires a FrozenMStar over an in-memory snapshot image. The
// buffer must not be modified while the view is in use. Tests and the
// differential harness use this to exercise the full parse/verify path
// without a filesystem.
func OpenBytes(data []byte, g *graph.Graph, o Options) (*Snapshot, error) {
	fm, err := parse(data, g, o)
	if err != nil {
		return nil, err
	}
	return &Snapshot{fm: fm, data: data}, nil
}

// WriteFile serializes fm to path, syncing before close. Prefer Publish for
// files a reader may open concurrently.
func WriteFile(path string, fm *core.FrozenMStar, o WriteOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mmapstore: %w", err)
	}
	if err := Write(f, fm, o); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("mmapstore: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mmapstore: close %s: %w", path, err)
	}
	return nil
}

// Publish atomically replaces path with a snapshot of fm: the bytes are
// written to a temporary file in the same directory, synced to stable
// storage, and renamed over path, then the directory itself is synced. A
// reader (or a crash) at any instant sees either the complete old file or
// the complete new file, never a torn mixture; concurrent mappings of the
// old file stay valid because the rename only unlinks the name, not the
// inode. On error the temporary file is removed and path is untouched.
func Publish(path string, fm *core.FrozenMStar, o WriteOptions) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("mmapstore: publish %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := Write(tmp, fm, o); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("mmapstore: publish %s: sync: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("mmapstore: publish %s: close: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("mmapstore: publish %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		// Sync the directory so the rename itself is durable; best effort on
		// filesystems that reject directory fsync.
		_ = d.Sync()
		d.Close()
	}
	return nil
}
