//go:build linux

package cache

import (
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// pidfd_open(2) and process_madvise(2) have the same numbers on amd64
// and arm64 (the generic syscall table); the syscall package has
// neither.
const (
	sysPidfdOpen      = 434
	sysProcessMadvise = 440
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

// zapPidfd opens a pidfd on this process, once: process_madvise names
// its target by pidfd. -1 means pidfd_open failed.
var zapPidfd = sync.OnceValue(func() int {
	fd, _, errno := syscall.Syscall(sysPidfdOpen, uintptr(os.Getpid()), 0, 0)
	if errno != 0 {
		return -1
	}
	return int(fd)
})

// zapBatch drops the pages of every span and returns the system calls
// it made: one process_madvise(MADV_DONTNEED) per 64 spans, on our own
// process (Linux >= 6.13 accepts that, and >= 6.16 flushes the TLB once
// per call). A kernel that refuses the call switches the process to
// one madvise per span for good; a short count re-zaps the batch span
// by span (MADV_DONTNEED is idempotent).
func zapBatch(spans []zapSpan) (calls uint64) {
	fd := -1
	if !zapEach.Load() {
		fd = zapPidfd()
	}
	if fd < 0 {
		zapEach.Store(true)
		for _, z := range spans {
			zapRegion(z.bytes())
		}
		return uint64(len(spans))
	}
	var iov [64]syscall.Iovec
	for len(spans) > 0 {
		batch := spans[:min(len(spans), len(iov))]
		spans = spans[len(batch):]
		want := 0
		for i, z := range batch {
			b := z.bytes()
			iov[i].Base = &b[0]
			iov[i].SetLen(len(b))
			want += len(b)
		}
		n, _, errno := syscall.Syscall6(sysProcessMadvise, uintptr(fd),
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(batch)),
			syscall.MADV_DONTNEED, 0, 0)
		calls++
		if errno == 0 && int(n) == want {
			continue
		}
		switch errno {
		case syscall.ENOSYS, syscall.EINVAL, syscall.EPERM, syscall.EBADF:
			zapEach.Store(true)
		}
		for _, z := range batch {
			zapRegion(z.bytes())
		}
		calls += uint64(len(batch))
	}
	return calls
}
