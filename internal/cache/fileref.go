package cache

import (
	"errors"
	"os"
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

// FileRef is a reference-counted open file shared between the pathname
// cache, in-flight readers — helper goroutines mapping or pread'ing
// chunks through it, and writer goroutines feeding it to sendfile(2) —
// and the window chunks read through it. It mirrors Chunk.refs for
// descriptors — the cache holds one reference for as long as the entry
// lives, each window chunk one for as long as the chunk is cached, and
// every concurrent user acquires its own, so eviction or invalidation
// can never close a descriptor out from under a read in flight.
//
// The descriptor and the file's mapping share this one lifetime. The
// first disk helper that needs the bytes maps the whole file (Map) and
// the mapping stays parked here: later fills — a refill after every
// chunk was evicted included — slice it again instead of mapping anew,
// which is the paper's §5.4 point that map/unmap is the expensive
// part. Evicting a chunk only drops its pages (MapCache zaps them);
// the mapping goes with the descriptor, when the last reference is
// released, and is unmapped once the chunk views cut from it have gone
// too. How many files stay open and mapped is therefore bounded by how
// many path entries the caches hold, plus the files whose window chunks
// are cached, plus what responses in flight pin.
//
// Unlike Chunk.refs (owned by a single event loop), the count is
// atomic: releases happen on helper and writer goroutines, not just
// the loop that owns the cache.
type FileRef struct {
	f     *os.File
	stats *MapStats
	refs  atomic.Int32

	mu      sync.Mutex // guards mapping: helpers of several shards map concurrently
	mapping *MmapRef   // the parked whole-file mapping; holds one reference of its own
}

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
// bytes, creating it on first use. The mapping is the FileRef's: the
// caller's reference to the FileRef covers using and slicing it, and
// each Slice holds the region on its own account after that. An error
// — a platform without mmap, the process out of map slots, a mapping
// parked under another size — means the caller reads the bytes
// instead; nothing is remembered, so the next job tries again.
func (r *FileRef) Map(size int64) (*MmapRef, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mapping == nil {
		m, err := MapChunk(r.f, 0, size)
		if err != nil {
			return nil, err
		}
		if m.Mapped() {
			r.stats.Maps.Add(1)
			m.stats = r.stats
		}
		r.mapping = m
	}
	if int64(len(r.mapping.data)) != size {
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

// Release drops one reference. The last one closes the descriptor and
// gives up the parked mapping, which unmaps as soon as no chunk view
// holds it.
func (r *FileRef) Release() {
	if n := r.refs.Add(-1); n == 0 {
		r.mu.Lock()
		m := r.mapping
		r.mapping = nil
		r.mu.Unlock()
		if m != nil {
			m.Release()
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

// MapRefs returns the parked mapping's reference count — the FileRef's
// own plus one per live chunk view — or zero when the file is not
// mapped (for tests).
func (r *FileRef) MapRefs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mapping == nil {
		return 0
	}
	return r.mapping.Refs()
}
