package cache

import (
	"sync"
	"sync/atomic"
)

// DefaultSegments is how many hash partitions the shared chunk tier
// uses. Fixed — independent of the shard count — so the configured
// byte budget means the same thing at any EventLoops setting.
const DefaultSegments = 16

// StoreOptions configures NewShardedStore. Capacities are store-wide
// totals: path and header entry counts split evenly across shards
// (they are loop-private, as in v1), while MapBytes bounds the single
// shared chunk tier — it is no longer divided by the shard count.
type StoreOptions struct {
	// Shards is the number of event-loop views (>= 1).
	Shards int

	// PathEntries and HeaderEntries bound the per-loop translation and
	// header caches, as server-wide totals. PathEntries also bounds the
	// proxied keys' entries, split across the segments.
	PathEntries   int
	HeaderEntries int

	// MapBytes bounds the shared chunk tier; ChunkBytes is the chunk
	// granularity (default DefaultChunkSize).
	MapBytes   int64
	ChunkBytes int64

	// Segments is the shared tier's partition count (default
	// DefaultSegments).
	Segments int

	// OnPathEvict observes path entries dropped by LRU pressure, per
	// view (owners release descriptor references here).
	OnPathEvict func(name string, e PathEntry)
}

// ShardedStore is the cache layer: one object subsuming the pathname,
// response-header, and mapped-chunk caches (the §5 trio), carved into
// per-event-loop Views owning the loop-private path and header caches,
// over a shared chunk tier of hash-partitioned, mutex-guarded segments
// with single-flight fills. Each chunk has one index entry, in the
// segment keyed by hash(path), and every view's lookups go there; so
// does each proxied key's entry (View.Entry). A chunk's bytes are
// either a view over a refcounted mapping (a Slice of FileRef.Map, then
// Fill.PublishMapped — what disk helpers produce) or a heap buffer
// (Fill.Publish — origin bodies, and the helpers' read fallback where a
// file cannot be mapped); the segments treat both alike.
//
// Concurrency contract: methods on ShardedStore itself are safe from
// any goroutine. A View is owned by exactly one event loop — its
// methods must only be called from that loop. Chunks and Fills handed
// out by a View may cross goroutines (connection goroutines transmit
// chunk bytes; helper goroutines publish into fills).
type ShardedStore struct {
	chunkSize int64
	segments  []*segment
	views     []*storeView

	fillsStarted   atomic.Uint64
	fillsJoined    atomic.Uint64
	fillsCompleted atomic.Uint64
	fillsFailed    atomic.Uint64
}

// segment is one partition of the shared chunk tier: a mutex-guarded
// MapCache plus the in-flight fills and proxied keys' entries for paths
// hashing here.
type segment struct {
	store *ShardedStore
	tag   int32 // Chunk.home value for this segment (index+1)

	mu      sync.Mutex
	chunks  *MapCache
	fills   map[string]*Fill
	entries *lru[string, PathEntry]
}

// insert records a chunk in the segment (seg.mu held) and returns it
// pinned, tagged with its home for Release.
func (seg *segment) insert(key ChunkKey, data []byte, m *MmapRef, size, modTime int64) *Chunk {
	c := seg.chunks.insert(key, data, m, size, modTime)
	if c.home == 0 {
		c.home = seg.tag
	}
	return c
}

// unlock releases seg.mu, then flushes the zap queue an eviction under
// it filled: the batch call runs under the queue's mutex alone, never
// a segment lock. Every hold that can evict (an insert, a release)
// ends here.
func (seg *segment) unlock() {
	due := seg.chunks.zapDue
	seg.chunks.zapDue = nil
	seg.mu.Unlock()
	if due != nil {
		due.flushZaps()
	}
}

// storeView is one event loop's facade (View implementation).
type storeView struct {
	store *ShardedStore
	paths *PathCache
	hdrs  *HeaderCache
	// lookups counts this loop's chunk lookups; the segments count the
	// same lookups again, summed over every loop.
	lookups Stats
}

var _ View = (*storeView)(nil)

// NewShardedStore builds the v2 store. A single-shard store behaves
// like the original trio with a shared chunk budget.
func NewShardedStore(o StoreOptions) *ShardedStore {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Segments <= 0 {
		o.Segments = DefaultSegments
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = DefaultChunkSize
	}
	st := &ShardedStore{chunkSize: o.ChunkBytes}
	for i := 0; i < o.Segments; i++ {
		st.segments = append(st.segments, &segment{
			store:   st,
			tag:     int32(i) + 1,
			chunks:  NewMapCache(max64(o.MapBytes/int64(o.Segments), 1), o.ChunkBytes),
			fills:   make(map[string]*Fill),
			entries: newLRU[string, PathEntry](maxInt(o.PathEntries/o.Segments, 1), nil),
		})
	}
	for i := 0; i < o.Shards; i++ {
		st.views = append(st.views, &storeView{
			store: st,
			paths: NewPathCacheEvict(maxInt(o.PathEntries/o.Shards, 1), o.OnPathEvict),
			hdrs:  NewHeaderCache(maxInt(o.HeaderEntries/o.Shards, 1)),
		})
	}
	return st
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// fnv32 is FNV-1a over s (the partitioning hash for segments and fill
// ownership).
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// OwnerShard maps a path to the shard that owns its fills: the one
// whose helper pool runs the single-flight disk pass. Deterministic
// across callers so every shard agrees.
func OwnerShard(path string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(fnv32(path) % uint32(shards))
}

func (st *ShardedStore) segmentFor(path string) *segment {
	return st.segments[fnv32(path)%uint32(len(st.segments))]
}

// Shards returns the number of views.
func (st *ShardedStore) Shards() int { return len(st.views) }

// View returns shard i's facade.
func (st *ShardedStore) View(i int) View { return st.views[i] }

// ChunkSize returns the chunk granularity in bytes.
func (st *ShardedStore) ChunkSize() int64 { return st.chunkSize }

// NumChunks returns how many chunks a file of size bytes occupies.
func (st *ShardedStore) NumChunks(size int64) int {
	if size <= 0 {
		return 1
	}
	return int((size + st.chunkSize - 1) / st.chunkSize)
}

// ChunkRange returns the byte range [off, off+n) of chunk index
// within a file of the given size.
func (st *ShardedStore) ChunkRange(size int64, index int) (off, n int64) {
	off = int64(index) * st.chunkSize
	if off >= size {
		return off, 0
	}
	n = st.chunkSize
	if off+n > size {
		n = size - off
	}
	return off, n
}

// SharedStats snapshots the segment tier and fill counters.
func (st *ShardedStore) SharedStats() SharedStats {
	var out SharedStats
	for _, seg := range st.segments {
		seg.mu.Lock()
		out.Chunks = out.Chunks.Add(seg.chunks.Stats())
		out.Entries = out.Entries.Add(seg.entries.stats)
		out.UsedBytes += seg.chunks.Used()
		out.ActiveFills += len(seg.fills)
		seg.mu.Unlock()
	}
	out.Fills = FillStats{
		Started:   st.fillsStarted.Load(),
		Joined:    st.fillsJoined.Load(),
		Completed: st.fillsCompleted.Load(),
		Failed:    st.fillsFailed.Load(),
	}
	return out
}

// Close drops the store's own references. Fills must have ended
// (producers stopped) and entry-held resources must have been
// released by the owner before calling.
func (st *ShardedStore) Close() {
	for _, seg := range st.segments {
		seg.mu.Lock()
		seg.fills = make(map[string]*Fill)
		seg.mu.Unlock()
	}
}

// --- storeView: path cache ---

func (v *storeView) GetPath(name string) (PathEntry, bool)  { return v.paths.Get(name) }
func (v *storeView) PeekPath(name string) (PathEntry, bool) { return v.paths.Peek(name) }
func (v *storeView) PutPath(name string, e PathEntry)       { v.paths.Put(name, e) }
func (v *storeView) InvalidatePath(name string) bool        { return v.paths.Invalidate(name) }
func (v *storeView) EachPath(fn func(string, PathEntry))    { v.paths.Each(fn) }
func (v *storeView) ClearPaths()                            { v.paths.Clear() }

// --- storeView: header cache ---

func (v *storeView) GetHeader(path, variant string, modTime int64) (HeaderEntry, bool) {
	return v.hdrs.GetVariant(path, variant, modTime)
}

func (v *storeView) PutHeader(path, variant string, e HeaderEntry) {
	v.hdrs.PutVariant(path, variant, e)
}

func (v *storeView) HeaderLen() int { return v.hdrs.Len() }

// --- storeView: chunk tier ---

// Lookup probes the owner segment under its lock. A chunk recorded
// under a different modTime is a miss — the caller's fill verifies the
// file's identity.
func (v *storeView) Lookup(key ChunkKey, modTime int64) *Chunk {
	seg := v.store.segmentFor(key.Path)
	seg.mu.Lock()
	c := seg.chunks.lookup(key, modTime)
	seg.mu.Unlock()
	if c == nil {
		v.lookups.Misses++
	} else {
		v.lookups.Hits++
	}
	return c
}

// Insert records a freshly read chunk in the owner segment, where every
// shard can hit it. A resident chunk of the same generation wins; one
// of another generation is replaced.
func (v *storeView) Insert(key ChunkKey, data []byte, size, modTime int64) *Chunk {
	seg := v.store.segmentFor(key.Path)
	seg.mu.Lock()
	c := seg.insert(key, data, nil, size, modTime)
	seg.unlock()
	return c
}

// Release unpins a chunk in the segment that owns it.
func (v *storeView) Release(c *Chunk) {
	if c.home == 0 {
		panic("cache: Release of a chunk this store does not own")
	}
	seg := v.store.segments[c.home-1]
	seg.mu.Lock()
	seg.chunks.Release(c)
	seg.unlock()
}

// InvalidateFile drops the chunks of path recorded under modTime from
// the owner segment, and the key's entry if it is that generation, and
// dooms the in-flight fill if it is loading that generation.
func (v *storeView) InvalidateFile(path string, size, modTime int64) {
	seg := v.store.segmentFor(path)
	seg.mu.Lock()
	seg.chunks.InvalidateFile(path, modTime, v.store.NumChunks(size))
	if pe, ok := seg.entries.peek(path); ok && pe.Size == size && pe.ModTime == modTime {
		seg.entries.remove(path)
	}
	if f := seg.fills[path]; f != nil && f.size >= 0 && f.modTime == modTime {
		f.doomed = true
	}
	seg.mu.Unlock()
}

// JoinFill subscribes to the in-flight fill for path, or registers a
// new one (started=true: the caller owns arranging its producer). An
// in-flight fill of another identity is returned as it is, not counted
// as a join: the caller waits for it to end and joins again. (No chunk
// has index -1, so JoinFillAt's probe never finds one resident.)
func (v *storeView) JoinFill(path string, size, modTime int64) (*Fill, bool) {
	return v.JoinFillAt(ChunkKey{Path: path, Index: -1}, size, modTime)
}

// JoinFillAt is JoinFill for a caller whose lookup of key missed: when
// no fill is in flight and key is resident under modTime — a fill
// published it and retired since the lookup — no fill starts, and a
// finished one is returned, whose ChunkAt sends the caller back to the
// cache. Nor for a proxied key whose entry is another generation: the
// fill returned has failed with ErrFillStale.
func (v *storeView) JoinFillAt(key ChunkKey, size, modTime int64) (*Fill, bool) {
	path := key.Path
	seg := v.store.segmentFor(path)
	seg.mu.Lock()
	if f := seg.fills[path]; f != nil {
		if f.size == size && f.modTime == modTime {
			v.store.fillsJoined.Add(1)
		}
		seg.mu.Unlock()
		return f, false
	}
	f := newFill(seg, path, size, modTime)
	if pe, ok := seg.entries.peek(path); ok && (pe.Size != size || pe.ModTime != modTime) {
		f.state, f.err = fillFailed, ErrFillStale
		seg.mu.Unlock()
		return f, false
	}
	if c := seg.chunks.chunks[key]; c != nil && c.ModTime == modTime {
		f.state = fillDone
		seg.mu.Unlock()
		return f, false
	}
	seg.fills[path] = f
	seg.mu.Unlock()
	v.store.fillsStarted.Add(1)
	return f, true
}

// Entry returns a proxied key's entry from its owner segment.
func (v *storeView) Entry(key string) (PathEntry, bool) {
	seg := v.store.segmentFor(key)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	return seg.entries.get(key)
}

// JoinEntry returns key's entry when it is fresh at now; otherwise the
// key's fill, registering one without an identity (started=true) when
// none is in flight.
func (v *storeView) JoinEntry(key string, now int64) (PathEntry, *Fill, bool) {
	seg := v.store.segmentFor(key)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if pe, ok := seg.entries.peek(key); ok && pe.Expires > now {
		return pe, nil, false
	}
	if f := seg.fills[key]; f != nil {
		return PathEntry{}, f, false
	}
	f := newFill(seg, key, -1, 0)
	seg.fills[key] = f
	v.store.fillsStarted.Add(1)
	return PathEntry{}, f, true
}

// LocalStats snapshots the loop-private counters (owner loop only).
func (v *storeView) LocalStats() ViewStats {
	return ViewStats{Paths: v.paths.Stats(), Headers: v.hdrs.Stats(), Chunks: v.lookups}
}
