//go:build !linux

package store

import (
	"os"

	"rdfindexes/internal/codec"
)

// mapFile reads f into an 8-byte-aligned heap buffer: without a mapping
// the decoded word arrays are views into that buffer instead, and the
// garbage collector keeps it alive.
func mapFile(f *os.File, _ int64) (data []byte, mapped bool, err error) {
	data, err = codec.ReadAligned(f)
	return data, false, err
}

// unmapFile is never called: mapFile maps nothing here.
func unmapFile([]byte) error { return nil }
