package engine

// PersistOptions makes an engine disk-resident: every published generation
// is atomically republished (write-temp + fsync + rename) as an mmapstore
// snapshot under Dir, and the engine serves queries from the trusted
// zero-copy remapping of that file instead of the heap-frozen view. The
// on-disk file is therefore always a complete, crash-consistent image of
// exactly what the engine is serving, and a restarting process can reopen
// it in O(1) (see mmapstore.Open and cmd/mrserve's -index-file).
type PersistOptions struct {
	// Dir is the directory the snapshot file lives in. The monolithic
	// Engine writes Dir/mstar.mrx; a Sharded engine writes one
	// Dir/shard-NNN.mrx per shard. It must already exist.
	Dir string

	// Compact writes extent arenas varuint-delta-compressed instead of as
	// raw zero-copy arrays, trading open-time decode work for file size
	// (see mmapstore.WriteOptions.CompactExtents).
	Compact bool
}

// persistFile is the monolithic Engine's snapshot file name under
// PersistOptions.Dir (its one shard's, in place of shard-000.mrx).
const persistFile = "mstar.mrx"
