package cache

import (
	"errors"
	"os"
	"runtime/debug"
	"sync/atomic"
)

// ErrMapFault reports that touching a mapped chunk faulted: the file
// was truncated under the live mapping (or the disk failed the read
// behind the page fault).
var ErrMapFault = errors.New("cache: fault reading a mapped file region")

// MmapRef is a reference-counted mmap(2) region backing chunks of the
// store. It extends the FileRef pattern to mappings: the cache's chunk
// holds one reference for as long as the chunk lives, and every
// additional holder — an L1 replica sharing the pages, an in-flight
// response whose writev gathers the bytes, a fill subscriber —
// acquires its own, so eviction or invalidation can never munmap a
// region out from under a write in flight. The region is unmapped
// exactly once, when the last reference is released.
//
// Like the paper's Flash, a mapped region shares pages with the page
// cache, so what happens to the file happens to the chunk. Files are
// expected to be replaced by rename: the old inode stays intact under
// its mappings and the new one is picked up by revalidation. An
// in-place overwrite is visible through live mappings (cached chunks
// and responses in flight see the new bytes under the old identity
// until revalidation notices). An in-place truncation makes the pages
// past the new EOF fault: Touch — the only place the server reads
// mapped bytes in user space — turns that fault into ErrMapFault on
// the helper goroutine, failing the fill instead of the process, and
// a writer gathering an already-cached chunk gets EFAULT from writev
// and drops its connection.
//
// A ref is either a root (it owns the mapping) or a derived view
// created with Slice, which shares its root's reference count — one
// mapping, one count, any number of chunk-sized windows onto it. Fills
// exploit this: the producer maps the whole file once and publishes
// each chunk as a view, so a multi-chunk file costs one mmap/munmap
// pair instead of one per chunk (mmap and munmap serialize on the
// process's address-space lock and invalidate TLBs; per-chunk churn is
// measurably slower than the copies it replaces).
type MmapRef struct {
	raw  []byte   // full page-aligned mapping (the munmap argument); nil for a derived or zero-length ref
	data []byte   // the chunk's byte view within the mapping
	base *MmapRef // the root ref for a derived view; nil for a root
	refs atomic.Int32
}

// root returns the ref that owns the mapping and carries the count.
func (r *MmapRef) root() *MmapRef {
	if r.base != nil {
		return r.base
	}
	return r
}

// mmapPageSize is the fault granularity for Touch.
var mmapPageSize = os.Getpagesize()

// mmapTouchSink absorbs Touch's reads so they cannot be optimized
// away. Atomic: concurrent fills touch from independent helpers.
var mmapTouchSink atomic.Uint32

// newMmapRef adopts a mapped region with a reference count of one
// (the creator's — typically the cache chunk's — reference).
func newMmapRef(raw, data []byte) *MmapRef {
	r := &MmapRef{raw: raw, data: data}
	r.refs.Store(1)
	return r
}

// Bytes returns the chunk's byte view. Valid only while the caller
// holds a reference.
func (r *MmapRef) Bytes() []byte { return r.data }

// Mapped reports whether the bytes are a real mmap region (false for
// zero-length chunks).
func (r *MmapRef) Mapped() bool { return r.root().raw != nil }

// Acquire adds a reference on behalf of a new holder. The caller must
// already hold a reference (a count observed above zero can otherwise
// race with the final Release).
func (r *MmapRef) Acquire() *MmapRef {
	r.root().refs.Add(1)
	return r
}

// Release drops one reference, unmapping the region when the last one
// goes (madvise DONTNEED + munmap).
func (r *MmapRef) Release() {
	root := r.root()
	if n := root.refs.Add(-1); n == 0 {
		if root.raw != nil {
			munmapRegion(root.raw)
			root.raw, root.data = nil, nil
		}
	} else if n < 0 {
		panic("cache: MmapRef over-released")
	}
}

// Refs returns the current reference count (for tests).
func (r *MmapRef) Refs() int { return int(r.root().refs.Load()) }

// Slice returns a derived ref viewing [off, off+n) of r's bytes,
// holding its own reference to the shared mapping. The caller's
// reference covers the call.
func (r *MmapRef) Slice(off, n int64) *MmapRef {
	root := r.root()
	root.refs.Add(1)
	return &MmapRef{data: r.data[off : off+n], base: root}
}

// Touch faults the view's pages in, one byte per page — the paper's
// "touch" half of mmap + touch, run on a helper goroutine so neither
// the event loop nor a writer mid-writev takes the fault. A page that
// cannot be read (the file was truncated under the mapping) raises
// SIGBUS; with SetPanicOnFault that is a panic on this goroutine
// rather than a dead process, recovered here into ErrMapFault.
func (r *MmapRef) Touch() (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if p := recover(); p != nil {
			if _, fault := p.(interface{ Addr() uintptr }); !fault {
				panic(p)
			}
			err = ErrMapFault
		}
	}()
	var sink byte
	for i := 0; i < len(r.data); i += mmapPageSize {
		sink += r.data[i]
	}
	mmapTouchSink.Store(uint32(sink))
	return nil
}

// MapChunk maps [off, off+n) of f read-only and returns it holding
// one reference, which the eventual View.InsertMapped or
// Fill.PublishMapped adopts. sequential marks a fill's one-pass read
// of a whole file: the mapping is taken lazily (the producer touches
// chunk by chunk) with readahead advice; otherwise the kernel
// populates the region inside the call. Either way pages fault in on
// the caller — run it on a disk helper, never an event loop. An empty
// range yields an empty unmapped ref (mmap refuses length zero). An
// error — including every call on a platform without mmap — means the
// caller reads the bytes instead.
func MapChunk(f *os.File, off, n int64, sequential bool) (*MmapRef, error) {
	if n <= 0 {
		return newMmapRef(nil, nil), nil
	}
	return mapFileRegion(f, off, n, sequential)
}
