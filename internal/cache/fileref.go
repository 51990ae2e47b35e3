package cache

import (
	"errors"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MapStats counts the mmap(2) and munmap(2) calls made for the files of
// one server (FileRefs created with the same MapStats share it), and
// holds the queue their evicted pages wait on to be zapped in a batch.
// ZapSpans counts the spans eviction gave up (queued, or zapped on the
// spot) and ZapCalls the system calls that dropped them: their ratio
// is the batch size, 1 where the kernel cannot batch.
type MapStats struct {
	Maps     atomic.Uint64
	Unmaps   atomic.Uint64
	ZapSpans atomic.Uint64
	ZapCalls atomic.Uint64

	zaps zapQueue
}

// errMapSize reports a parked mapping taken under a different file
// size than the caller's identity states.
var errMapSize = errors.New("cache: parked mapping has a different size")

// ErrMapFault reports that touching a mapped chunk faulted: the file
// was truncated under the live mapping (or the disk failed the read
// behind the page fault).
var ErrMapFault = errors.New("cache: fault reading a mapped file region")

// FileRef is a reference-counted open file and its parked mapping,
// shared between the pathname cache, in-flight readers — helper
// goroutines mapping or pread'ing chunks through it, and writer
// goroutines feeding it to sendfile(2) — and the chunks read through
// it. The cache holds one reference for as long as the entry lives,
// each file-backed chunk (mapped or window) one for as long as the
// chunk is cached, and every concurrent user acquires its own, so
// eviction or invalidation can never close a descriptor, or unmap
// bytes, out from under a read or a write in flight.
//
// The descriptor and the file's mapping share this one count. The
// first disk helper that needs the bytes maps the whole file (Map) and
// the mapping stays parked here: later fills — a refill after every
// chunk was evicted included — use it again instead of mapping anew,
// which is the paper's §5.4 point that map/unmap is the expensive
// part. Evicting a chunk only drops its pages (MapCache zaps them);
// the mapping is unmapped, and the descriptor closed, when the last
// reference is released. How many files stay open and mapped is
// therefore bounded by how many path entries the caches hold, plus the
// files with chunks cached, plus what responses in flight pin.
//
// Like the paper's Flash, a mapping shares pages with the page cache,
// so what happens to the file happens to its mapped chunks. Files are
// expected to be replaced by rename: the old inode stays intact under
// its mapping and the new one is picked up by revalidation. An in-place
// truncation makes the pages past the new EOF fault: Touch — the only
// place the server reads mapped bytes in user space — turns that fault
// into ErrMapFault on the helper goroutine, failing the fill instead of
// the process, and a writer gathering an already-cached chunk gets
// EFAULT from writev and drops its connection.
//
// Unlike Chunk.refs (owned by a single event loop), the count is
// atomic: releases happen on helper and writer goroutines, not just
// the loop that owns the cache.
type FileRef struct {
	f     *os.File
	stats *MapStats
	refs  atomic.Int32

	mu      sync.Mutex // guards the making of mapping: helpers of several shards map concurrently
	mapping []byte     // the parked whole-file mapping; nil until a helper maps the file
}

// mmapPageSize is the fault granularity for Touch.
var mmapPageSize = os.Getpagesize()

// mmapTouchSink absorbs Touch's reads so they cannot be optimized
// away. Atomic: concurrent fills touch from independent helpers.
var mmapTouchSink atomic.Uint32

// NewFileRef adopts f with a reference count of one (the creator's —
// typically the cache entry's — reference). Mappings made through the
// ref are counted in stats.
func NewFileRef(f *os.File, stats *MapStats) *FileRef {
	r := &FileRef{f: f, stats: stats}
	r.refs.Store(1)
	return r
}

// File returns the underlying descriptor. Valid only while the caller
// holds a reference.
func (r *FileRef) File() *os.File { return r.f }

// Map returns the parked read-only mapping of the file's first size
// bytes, creating it on first use. The mapping is lazy: nothing is read
// until its bytes are touched (Touch, on a disk helper — never an event
// loop). The caller's reference covers using the bytes, and a chunk
// published from them holds a reference of its own. An empty file has
// no pages to map (mmap refuses length zero): it gets empty bytes and
// nothing is parked. An error — a platform without mmap, the process
// out of map slots, a mapping parked under another size — means the
// caller reads the bytes instead; nothing is remembered, so the next
// job tries again.
func (r *FileRef) Map(size int64) ([]byte, error) {
	if size == 0 {
		return []byte{}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mapping == nil {
		m, err := mapFile(r.f, size)
		if err != nil {
			return nil, err
		}
		r.stats.Maps.Add(1)
		r.mapping = m
	}
	if int64(len(r.mapping)) != size {
		return nil, errMapSize
	}
	return r.mapping, nil
}

// Acquire adds a reference on behalf of a new user. The caller must
// already hold a reference (a count observed above zero can otherwise
// race with the final Release).
func (r *FileRef) Acquire() *FileRef {
	r.refs.Add(1)
	return r
}

// Release drops one reference. The last one cancels the mapping's
// queued zaps, unmaps it and closes the descriptor: nothing holds
// either any more.
func (r *FileRef) Release() {
	if n := r.refs.Add(-1); n == 0 {
		if r.mapping != nil {
			r.stats.cancelZaps(r)
			munmapRegion(r.mapping)
			r.mapping = nil
			r.stats.Unmaps.Add(1)
		}
		if r.f != nil {
			r.f.Close()
		}
	} else if n < 0 {
		panic("cache: FileRef over-released")
	}
}

// Refs returns the current reference count (for tests).
func (r *FileRef) Refs() int { return int(r.refs.Load()) }

// zap gives the pages of bytes [lo, hi) of the mapping back to the
// kernel (MADV_DONTNEED) without unmapping them: the eviction of a
// chunk is a statement that its pages are cold, and dropping them is
// what keeps the process's resident size at the chunk budget while the
// address range stays parked for the next fill. Only whole pages inside
// the range go (a range that reaches the end of the mapping includes
// its last, partial page), so a neighbouring chunk's pages survive.
// Eviction takes only unpinned chunks, so no response reads the bytes
// zapped; whoever reads them next faults them back in from the page
// cache. The evicted chunk's reference covers the call.
//
// The span waits on the server's zap queue, and zap returns the
// MapStats whose queue is due for a flush — which the caller makes once
// it holds no segment lock. A process whose kernel cannot batch zaps
// at once.
func (r *FileRef) zap(lo, hi int) (due *MapStats) {
	pg := mmapPageSize
	lo = (lo + pg - 1) / pg * pg
	if hi < len(r.mapping) {
		hi = hi / pg * pg
	}
	if lo >= hi {
		return nil
	}
	st := r.stats
	switch {
	case zapEach.Load():
		st.ZapSpans.Add(1)
		st.ZapCalls.Add(1)
		zapRegion(r.mapping[lo:hi])
	case st.queueZap(r, lo, hi):
		return st
	}
	return nil
}

// Touch faults the pages of bytes [off, off+n) of the mapping in, one
// byte per page — the paper's "touch" half of mmap + touch, run on a
// helper goroutine so neither the event loop nor a writer mid-writev
// takes the fault. A page that cannot be read (the file was truncated
// under the mapping) raises SIGBUS; with SetPanicOnFault that is a
// panic on this goroutine rather than a dead process, recovered here
// into ErrMapFault. The caller maps first (Map) and holds a reference.
//
// The file's queued zaps are cancelled first, so a flush never drops
// the pages of a chunk refilled before the queue drained.
func (r *FileRef) Touch(off, n int64) (err error) {
	r.stats.cancelZaps(r)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if p := recover(); p != nil {
			if _, fault := p.(interface{ Addr() uintptr }); !fault {
				panic(p)
			}
			err = ErrMapFault
		}
	}()
	b := r.mapping[off : off+n]
	var sink byte
	for i := 0; i < len(b); i += mmapPageSize {
		sink += b[i]
	}
	mmapTouchSink.Store(uint32(sink))
	return nil
}

// Resident reports whether every page behind bytes [off, off+n) of the
// file is in the page cache, by mincore(2) over the parked mapping: it
// faults nothing in and reads no byte, so a disk helper can tell
// whether a window chunk's bytes are there to be sent without making
// the process map them — the paper's mincore test (§5.7), made where a
// miss would be read. A range the kernel will not report on, and a
// file not mapped (every file off Linux), reads as not resident, which
// sends the caller to read the bytes. Linux reports every page of a
// file this process could not open for writing as resident: the check
// then costs nothing and the send may wait for the disk on the
// connection's goroutine — never an event loop. The caller maps first
// (Map) and holds a reference.
func (r *FileRef) Resident(off, n int64) bool {
	lo, hi := int(off), int(off+n)
	if lo < 0 || hi > len(r.mapping) || lo >= hi {
		return false
	}
	lo = lo / mmapPageSize * mmapPageSize
	return residentRegion(r.mapping[lo:hi])
}
