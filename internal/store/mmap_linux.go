//go:build linux

package store

import (
	"os"
	"syscall"
)

// mapFile maps the size bytes of f read-only and shared. MAP_POPULATE
// faults every page in during the call, so the open pays one pass
// instead of a page fault per first touch, and PROT_READ makes any write
// into a decoded word array fault at once instead of corrupting the
// file. An empty file maps to nothing.
func mapFile(f *os.File, size int64) (data []byte, mapped bool, err error) {
	if size == 0 {
		return nil, false, nil
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(data []byte) error { return syscall.Munmap(data) }
