//go:build linux

package cache

import (
	"os"
	"syscall"
)

// mapFileRegion maps [off, off+n) of f read-only and shared. mmap
// requires a page-aligned offset, so the mapping starts at the
// containing page boundary and the returned ref's view skips the slack
// (zero for a whole-file mapping). The mapping is lazy on purpose:
// serve-while-fill publishes chunk after chunk, and an eager
// whole-file read would hold the first byte hostage to the last. The
// paper's helpers do "mmap + touch"; the touch is the producer's, per
// chunk, just before it publishes (MmapRef.Touch).
func mapFileRegion(f *os.File, off, n int64) (*MmapRef, error) {
	pg := int64(os.Getpagesize())
	aligned := off - off%pg
	raw, err := syscall.Mmap(int(f.Fd()), aligned, int(n+(off-aligned)),
		syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	slack := int(off - aligned)
	return newMmapRef(raw, raw[slack:slack+int(n)], slack), nil
}

// munmapRegion drops a mapping for good (its page-table entries go
// with it).
func munmapRegion(raw []byte) {
	_ = syscall.Munmap(raw)
}

// zapRegion drops the pages of b, a page-aligned piece of a live
// mapping, leaving the address range mapped.
func zapRegion(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
}
