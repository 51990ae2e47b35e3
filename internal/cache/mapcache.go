package cache

import "fmt"

// ChunkKey identifies one chunk of one file. Small files occupy a single
// chunk (index 0); large files are split into ChunkSize pieces (§5.4).
type ChunkKey struct {
	Path  string
	Index int
}

// Chunk is a cached file mapping. In the real server Data holds the
// file bytes, immutable once inserted: a view over a refcounted mmap
// region (see mapping) or, where the producer read instead of mapping,
// a heap buffer (the garbage collector plays the role of munmap). In
// the simulator Data is nil and only Size is used.
type Chunk struct {
	Key  ChunkKey
	Data []byte
	Size int64
	// ModTime is the file modification time (unix seconds) the chunk's
	// bytes were read under. Store implementations record it so lookups
	// can reject chunks from a different generation of the file; bare
	// MapCache users may leave it zero.
	ModTime int64

	refs int
	// home tags which tier of a sharded Store owns the chunk: zero for
	// a bare MapCache, seg+1 for owner segment seg, -(shard+1) for a
	// shard's L1 replica tier. Release dispatch in the store keys off
	// it; a bare MapCache ignores it.
	home int32
	// prev/next link the chunk into the cache's intrusive free list
	// while refs == 0 (onFree reports membership). An intrusive list —
	// rather than container/list — keeps the steady-state pin/release
	// cycle of every cache hit free of node allocations.
	prev, next *Chunk
	onFree     bool
	dead       bool // detached by InvalidateFile while pinned
	// mapping, when non-nil, owns the chunk's backing mmap region: Data
	// is a view into it, and the chunk holds one reference, released
	// only when the cache discards the chunk for good — never while
	// writers or replicas still hold theirs. Immutable once inserted,
	// like Data.
	mapping *MmapRef
}

// dropMapping releases the chunk's backing mapping, if any, once the
// cache discards the chunk for good (eviction, invalidation, or the
// dead-chunk release). Heap chunks have none; this is a no-op.
func (c *Chunk) dropMapping() {
	if c.mapping != nil {
		c.mapping.Release()
		c.mapping = nil
	}
}

// Refs returns the current pin count (for tests and introspection).
func (c *Chunk) Refs() int { return c.refs }

// MapCacheStats extends the common counters with byte-level accounting.
type MapCacheStats struct {
	Stats
	BytesMapped   int64 // cumulative bytes inserted
	BytesUnmapped int64 // cumulative bytes evicted
}

// Add returns the field-wise sum of two counter sets (the merged view
// across per-shard caches).
func (s MapCacheStats) Add(o MapCacheStats) MapCacheStats {
	s.Stats = s.Stats.Add(o.Stats)
	s.BytesMapped += o.BytesMapped
	s.BytesUnmapped += o.BytesUnmapped
	return s
}

// MapCache is the mapped-file cache (§5.4): chunks of files are kept
// mapped between requests; chunks not currently in use by any request
// sit on an LRU free list and are lazily unmapped only when the total
// mapped size exceeds the limit. Pinned (in-use) chunks are never
// evicted, mirroring the safety rule that a mapping being transmitted
// must stay valid.
type MapCache struct {
	limit     int64
	chunkSize int64
	used      int64
	chunks    map[ChunkKey]*Chunk
	// Intrusive free list of unpinned chunks: freeHead = most recently
	// released, freeTail = eviction candidate.
	freeHead, freeTail *Chunk
	stats              MapCacheStats
	// OnEvict, if set, observes evictions (the simulator charges munmap
	// costs; the real server lets the GC reclaim).
	OnEvict func(*Chunk)
	// zapOnEvict makes budget eviction give a mapped chunk's pages back
	// to the kernel. Set on the tier that owns the bytes (the store's
	// segments); a replica tier leaves the pages to its owner.
	zapOnEvict bool
}

// zapRun coalesces the page drops of one eviction pass: views of one
// mapping that are adjacent in it — the chunks of a file age out
// together — leave in a single madvise call. It holds the reference of
// the first view it took, which keeps the mapping alive until flush.
type zapRun struct {
	ref    *MmapRef
	lo, hi int
}

// extends reports whether m is a view of the run's mapping adjacent to
// what the run already covers.
func (z *zapRun) extends(m *MmapRef) bool {
	if z.ref == nil || m == nil || z.ref.root() != m.root() {
		return false
	}
	lo, hi := m.span()
	return lo == z.hi || hi == z.lo
}

// add takes over the evicted chunk's mapping reference m.
func (z *zapRun) add(m *MmapRef) {
	lo, hi := m.span()
	if z.extends(m) {
		z.lo, z.hi = min(z.lo, lo), max(z.hi, hi)
		m.Release()
		return
	}
	z.flush()
	z.ref, z.lo, z.hi = m, lo, hi
}

func (z *zapRun) flush() {
	if z.ref != nil {
		z.ref.zap(z.lo, z.hi)
		z.ref.Release()
		z.ref = nil
	}
}

// freePush links c at the head of the free list.
func (m *MapCache) freePush(c *Chunk) {
	c.onFree = true
	c.prev, c.next = nil, m.freeHead
	if m.freeHead != nil {
		m.freeHead.prev = c
	}
	m.freeHead = c
	if m.freeTail == nil {
		m.freeTail = c
	}
}

// freeRemove unlinks c from the free list.
func (m *MapCache) freeRemove(c *Chunk) {
	if !c.onFree {
		return
	}
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		m.freeHead = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		m.freeTail = c.prev
	}
	c.prev, c.next, c.onFree = nil, nil, false
}

// DefaultChunkSize splits large files into 64 KB chunks, matching the
// filesystem's read-ahead clustering.
const DefaultChunkSize = 64 << 10

// NewMapCache creates a cache limited to limit bytes of mappings with
// the given chunk size. A zero limit disables caching: Insert still
// returns a pinned chunk (the request in progress needs it), but the
// chunk is dropped as soon as it is released.
func NewMapCache(limit int64, chunkSize int64) *MapCache {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &MapCache{
		limit:     limit,
		chunkSize: chunkSize,
		chunks:    make(map[ChunkKey]*Chunk),
	}
}

// ChunkSize returns the chunk granularity in bytes.
func (m *MapCache) ChunkSize() int64 { return m.chunkSize }

// NumChunks returns how many chunks a file of size bytes occupies.
func (m *MapCache) NumChunks(size int64) int {
	if size <= 0 {
		return 1
	}
	return int((size + m.chunkSize - 1) / m.chunkSize)
}

// ChunkRange returns the byte range [off, off+n) of chunk index within a
// file of the given size.
func (m *MapCache) ChunkRange(size int64, index int) (off, n int64) {
	off = int64(index) * m.chunkSize
	if off >= size {
		return off, 0
	}
	n = m.chunkSize
	if off+n > size {
		n = size - off
	}
	return off, n
}

// Lookup returns the chunk for key, pinned, or nil on miss. A chunk on
// the free list is removed from it (it is active again).
func (m *MapCache) Lookup(key ChunkKey) *Chunk {
	c, ok := m.chunks[key]
	if !ok {
		m.stats.Misses++
		return nil
	}
	m.stats.Hits++
	m.pin(c)
	return c
}

// Contains reports whether key is cached, without pinning or counting.
func (m *MapCache) Contains(key ChunkKey) bool {
	_, ok := m.chunks[key]
	return ok
}

// Insert adds a chunk (after the owner mapped/loaded it) and returns it
// pinned. Inserting over an existing key returns the existing chunk
// pinned instead (merged concurrent loads). Inactive chunks are evicted
// as needed to respect the byte limit.
func (m *MapCache) Insert(key ChunkKey, data []byte, size int64) *Chunk {
	if c, ok := m.chunks[key]; ok {
		m.pin(c)
		return c
	}
	return m.insertNew(key, data, size)
}

// InsertMapped is Insert for a chunk backed by an mmap region: the
// chunk adopts mr's reference. Inserting over an existing
// key returns the existing chunk pinned and releases the incoming
// reference — the resident bytes win, exactly as Insert discards the
// incoming buffer on a merged concurrent load.
func (m *MapCache) InsertMapped(key ChunkKey, mr *MmapRef, size int64) *Chunk {
	if c, ok := m.chunks[key]; ok {
		m.pin(c)
		mr.Release()
		return c
	}
	c := m.insertNew(key, mr.Bytes(), size)
	c.mapping = mr
	return c
}

func (m *MapCache) insertNew(key ChunkKey, data []byte, size int64) *Chunk {
	c := &Chunk{Key: key, Data: data, Size: size, refs: 1}
	m.chunks[key] = c
	m.used += size
	m.stats.Inserts++
	m.stats.BytesMapped += size
	m.evictOver()
	return c
}

// Release unpins a chunk. When the pin count reaches zero the chunk
// moves to the head of the free list — or is dropped immediately if the
// cache is over its limit (lazy unmapping).
func (m *MapCache) Release(c *Chunk) {
	if c.refs <= 0 {
		panic(fmt.Sprintf("cache: Release of unpinned chunk %v", c.Key))
	}
	c.refs--
	if c.refs > 0 {
		return
	}
	if c.dead {
		// Detached while pinned; its accounting was already removed.
		if m.OnEvict != nil {
			m.OnEvict(c)
		}
		c.dropMapping()
		return
	}
	m.freePush(c)
	m.evictOver()
}

// pin marks a chunk active.
func (m *MapCache) pin(c *Chunk) {
	if c.refs == 0 {
		m.freeRemove(c)
	}
	c.refs++
}

// evictOver discards LRU inactive chunks until within the limit. On
// the owner tier a mapped chunk's pages are dropped with it (holders
// of the same bytes elsewhere fault them back in from the page cache),
// and the pass goes on past the limit for as long as the next victim
// is the adjacent view of the mapping being zapped: the chunks of a
// file are released together and age out together, its first chunk
// gone means the next request refills the file anyway, and one
// madvise over the whole stretch costs a fraction of one per chunk
// (measured at 4.5 us for 16 pages and 2.1 us for 48: the kernel
// flushes short ranges from the TLB page by page).
func (m *MapCache) evictOver() {
	var zaps zapRun
	for c := m.freeTail; c != nil; c = m.freeTail { // nil: everything is pinned; stay over limit
		if m.used <= m.limit && !zaps.extends(c.mapping) {
			break
		}
		m.freeRemove(c)
		delete(m.chunks, c.Key)
		m.used -= c.Size
		m.stats.Evictions++
		m.stats.BytesUnmapped += c.Size
		if m.OnEvict != nil {
			m.OnEvict(c)
		}
		if m.zapOnEvict && c.mapping != nil {
			zaps.add(c.mapping)
			c.mapping = nil
		} else {
			c.dropMapping()
		}
	}
	zaps.flush()
}

// InvalidateFile drops the chunks of a path recorded under modTime
// (used when a file changed): one generation of the file retires, a
// newer one already loading under the same path stays. Bare MapCache
// users that leave Chunk.ModTime zero pass zero. Pinned chunks survive
// until released; they are marked so they are dropped rather than
// recycled.
func (m *MapCache) InvalidateFile(path string, modTime int64, maxChunks int) {
	for i := 0; i < maxChunks; i++ {
		if c, ok := m.chunks[ChunkKey{Path: path, Index: i}]; ok && c.ModTime == modTime {
			m.detach(c)
		}
	}
}

// detach removes c from the index and the byte accounting. An
// inactive chunk is dropped on the spot; a pinned one is marked dead
// and dropped (mapping and all) when its last holder releases it.
func (m *MapCache) detach(c *Chunk) {
	delete(m.chunks, c.Key)
	m.used -= c.Size
	m.stats.Evictions++
	m.stats.BytesUnmapped += c.Size
	if c.refs > 0 {
		c.dead = true
		return
	}
	m.freeRemove(c)
	if m.OnEvict != nil {
		m.OnEvict(c)
	}
	c.dropMapping()
}

// Used returns the total bytes currently mapped.
func (m *MapCache) Used() int64 { return m.used }

// Limit returns the byte limit.
func (m *MapCache) Limit() int64 { return m.limit }

// Len returns the number of mapped chunks.
func (m *MapCache) Len() int { return len(m.chunks) }

// FreeLen returns the number of inactive chunks on the free list.
func (m *MapCache) FreeLen() int {
	n := 0
	for c := m.freeHead; c != nil; c = c.next {
		n++
	}
	return n
}

// Stats returns cumulative counters.
func (m *MapCache) Stats() MapCacheStats { return m.stats }
