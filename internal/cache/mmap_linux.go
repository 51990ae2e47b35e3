//go:build linux

package cache

import (
	"os"
	"syscall"
)

// mapFileRegion maps [off, off+n) of f read-only. mmap requires a
// page-aligned offset, so the mapping starts at the containing page
// boundary and the returned ref's view skips the slack (zero for the
// default chunk geometry — 64 KiB chunks are page multiples).
//
// The paper's helpers do "mmap + touch": fault the pages in on the
// helper goroutine, so the major faults land on the blocking-work
// pool — never on the event loop or a writer goroutine mid-writev.
// The two callers split that differently:
//
//   - A single-chunk map (sequential=false) uses MAP_POPULATE — the
//     touch performed by the kernel inside the mmap call itself: one
//     trap populates every PTE, where an explicit loop pays a fault
//     per page.
//   - A fill's whole-file map (sequential=true) must NOT populate:
//     serve-while-fill publishes chunk after chunk, and an eager
//     whole-file read would hold the first byte hostage to the last.
//     The mapping is taken lazily with MADV_SEQUENTIAL (aggressive
//     readahead for the one-pass read) and the producer touches each
//     chunk's pages (MmapRef.Touch) just before publishing it.
func mapFileRegion(f *os.File, off, n int64, sequential bool) (*MmapRef, error) {
	pg := int64(os.Getpagesize())
	aligned := off - off%pg
	flags := syscall.MAP_SHARED
	if !sequential {
		flags |= syscall.MAP_POPULATE
	}
	raw, err := syscall.Mmap(int(f.Fd()), aligned, int(n+(off-aligned)),
		syscall.PROT_READ, flags)
	if err != nil {
		return nil, err
	}
	if sequential {
		_ = syscall.Madvise(raw, syscall.MADV_SEQUENTIAL)
	}
	return newMmapRef(raw, raw[off-aligned:off-aligned+n]), nil
}

// munmapRegion drops an evicted mapping: MADV_DONTNEED first — the
// eviction is a statement that the pages are cold, so give them back
// to the kernel rather than leaving them charged to this process
// until reclaim — then munmap.
func munmapRegion(raw []byte) {
	_ = syscall.Madvise(raw, syscall.MADV_DONTNEED)
	_ = syscall.Munmap(raw)
}
