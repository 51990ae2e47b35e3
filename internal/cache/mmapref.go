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
// store. It extends the FileRef pattern to mappings: every holder of
// the bytes — the FileRef the mapping is parked on, each cache chunk
// cut from it — has its own reference, and an in-flight response whose
// writev gathers a chunk's bytes pins that chunk, so neither eviction
// nor the death of the path entry can munmap a region out from under a
// write in flight. The region is unmapped exactly once, when the last
// reference is released.
//
// Like the paper's Flash, a mapped region shares pages with the page
// cache, so what happens to the file happens to the chunk. Files are
// expected to be replaced by rename: the old inode stays intact under
// its mappings and the new one is picked up by revalidation. An
// in-place overwrite is visible through live mappings; the helpers
// verify the file's identity after they touched a chunk's bytes and
// before they publish it, so a rewrite they can see fails the fill
// rather than publishing new bytes under the old tag, and chunks
// already cached show the new bytes until revalidation notices. An
// in-place truncation makes the pages past the new EOF fault: Touch —
// the only place the server reads mapped bytes in user space — turns
// that fault into ErrMapFault on the helper goroutine, failing the
// fill instead of the process, and a writer gathering an
// already-cached chunk gets EFAULT from writev and drops its
// connection.
//
// A ref is either a root (it owns the mapping) or a derived view
// created with Slice, which shares its root's reference count — one
// mapping, one count, any number of chunk-sized windows onto it. The
// server has one root per open file, parked on its FileRef
// (FileRef.Map), and every chunk of that file is a view of it: mmap
// and munmap serialize on the process's address-space lock and
// invalidate TLBs, so they are paid per file generation, not per fill
// and never per chunk. What eviction returns to the kernel is the
// pages, not the address range (MapCache eviction zaps them).
type MmapRef struct {
	raw   []byte    // full page-aligned mapping (the munmap argument); nil for a derived or zero-length ref
	data  []byte    // the chunk's byte view within the mapping
	off   int       // data's offset within the root's raw region
	base  *MmapRef  // the root ref for a derived view; nil for a root
	stats *MapStats // root only: counts the munmap and queues the zaps; nil for a mapping no FileRef owns
	refs  atomic.Int32
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

// newMmapRef adopts a mapped region — data starts off bytes into raw —
// with a reference count of one (the creator's).
func newMmapRef(raw, data []byte, off int) *MmapRef {
	r := &MmapRef{raw: raw, data: data, off: off}
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
// goes.
func (r *MmapRef) Release() {
	root := r.root()
	if n := root.refs.Add(-1); n == 0 {
		if root.raw != nil {
			if root.stats != nil {
				root.stats.cancelZaps(root, 0, len(root.raw))
			}
			munmapRegion(root.raw)
			root.raw, root.data = nil, nil
			if root.stats != nil {
				root.stats.Unmaps.Add(1)
			}
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
	return &MmapRef{data: r.data[off : off+n], off: r.off + int(off), base: root}
}

// zap gives bytes [lo, hi) of the root's region back to the kernel
// (MADV_DONTNEED) without unmapping them: the eviction of a chunk is a
// statement that its pages are cold, and dropping them is what keeps
// the process's resident size at the chunk budget while the address
// range stays parked for the next fill. Only whole pages inside the
// range go (a range that reaches the end of the mapping includes its
// last, partial page), so a neighbouring chunk's pages survive.
// Eviction takes only unpinned chunks, so no response reads the bytes
// zapped; whoever reads them next faults them back in from the page
// cache. The caller's reference covers the call.
//
// A mapping a FileRef owns queues the span on its server's zap queue
// instead, and zap returns the MapStats whose queue is due for a flush
// — which the caller makes once it holds no segment lock. A mapping no
// FileRef owns, or a process whose kernel cannot batch, zaps at once.
func (r *MmapRef) zap(lo, hi int) (due *MapStats) {
	root := r.root()
	pg := mmapPageSize
	lo = (lo + pg - 1) / pg * pg
	if hi < len(root.raw) {
		hi = hi / pg * pg
	}
	if lo >= hi {
		return nil
	}
	st := root.stats
	switch {
	case st == nil:
		zapRegion(root.raw[lo:hi])
	case zapEach.Load():
		st.ZapSpans.Add(1)
		st.ZapCalls.Add(1)
		zapRegion(root.raw[lo:hi])
	case st.queueZap(root, lo, hi):
		return st
	}
	return nil
}

// span returns the view's byte range within its root's region.
func (r *MmapRef) span() (lo, hi int) { return r.off, r.off + len(r.data) }

// Touch faults the view's pages in, one byte per page — the paper's
// "touch" half of mmap + touch, run on a helper goroutine so neither
// the event loop nor a writer mid-writev takes the fault. A page that
// cannot be read (the file was truncated under the mapping) raises
// SIGBUS; with SetPanicOnFault that is a panic on this goroutine
// rather than a dead process, recovered here into ErrMapFault.
//
// Queued zaps of the view's range are cancelled first, so a flush
// never drops the pages of a chunk refilled before the queue drained.
func (r *MmapRef) Touch() (err error) {
	if root := r.root(); root.stats != nil {
		lo, hi := r.span()
		root.stats.cancelZaps(root, lo, hi)
	}
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

// MapChunk maps [off, off+n) of f read-only and returns it holding one
// reference. The mapping is lazy: nothing is read until the bytes are
// touched (MmapRef.Touch, on a disk helper — never an event loop). An
// empty range yields an empty unmapped ref (mmap refuses length zero).
// An error — including every call on a platform without mmap — means
// the caller reads the bytes instead. The server maps whole files
// through FileRef.Map; chunks are Slices of that.
func MapChunk(f *os.File, off, n int64) (*MmapRef, error) {
	if n <= 0 {
		return newMmapRef(nil, nil, 0), nil
	}
	return mapFileRegion(f, off, n)
}
