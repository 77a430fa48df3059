//go:build !unix

package mmapstore

import (
	"io"
	"os"
)

// mapFile falls back to reading the whole file into memory on platforms
// without a usable mmap: the format and every reader code path stay
// identical, only the zero-copy property is lost (an open then reads the
// whole file).
func mapFile(f *os.File, size int64) ([]byte, bool, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false, err
	}
	return data, false, nil
}

func munmapBytes(b []byte) error { return nil }
