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
	// header caches, as server-wide totals.
	PathEntries   int
	HeaderEntries int

	// MapBytes bounds the shared chunk tier; ChunkBytes is the chunk
	// granularity (default DefaultChunkSize).
	MapBytes   int64
	ChunkBytes int64

	// L1Bytes bounds each shard's loop-private replica cache of hot
	// chunks (the lock-free warm hit path). Zero defaults to
	// MapBytes/(8*Shards) — one eighth of the shared tier in total,
	// regardless of shard count. Negative means no L1: no replica is
	// made, and every chunk lookup goes to the owner segment (and takes
	// its lock).
	L1Bytes int64

	// Segments is the shared tier's partition count (default
	// DefaultSegments).
	Segments int

	// OnPathEvict observes path entries dropped by LRU pressure, per
	// view (owners release descriptor references here).
	OnPathEvict func(name string, e PathEntry)
}

// ShardedStore is the production Store: per-shard Views owning the v1
// trio's loop-private caches (paths, headers, and an L1 of replicated
// hot chunks) over a shared chunk tier of hash-partitioned,
// mutex-guarded segments with single-flight fills. Chunk bytes live
// once, in the segment keyed by hash(path); shards replicate only the
// hot set into their L1s. A chunk's bytes are either a view over a
// refcounted mapping (a Slice of FileRef.Map, then Fill.PublishMapped —
// what disk helpers produce) or a heap buffer (Fill.Publish — proxy
// refills, and the helpers' read fallback where a file cannot be
// mapped); the tiers treat both alike.
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
// MapCache plus the in-flight fills for paths hashing here.
type segment struct {
	store *ShardedStore
	tag   int32 // Chunk.home value for this segment (index+1)

	mu     sync.Mutex
	chunks *MapCache
	fills  map[string]*Fill
}

// storeView is one event loop's facade (View implementation).
type storeView struct {
	store *ShardedStore
	id    int
	paths *PathCache
	hdrs  *HeaderCache
	l1    *MapCache // nil when StoreOptions.L1Bytes is negative
}

var _ Store = (*ShardedStore)(nil)
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
	if o.L1Bytes == 0 {
		// Auto-size: an eighth of the shared tier, split across shards —
		// floored at one chunk, because a small MapBytes must shrink the
		// L1, not silently disable it. "Off" is the negative sentinel
		// (matching the -cache-l1-kb flag contract), never a rounding
		// artifact.
		o.L1Bytes = o.MapBytes / (8 * int64(o.Shards))
		if o.L1Bytes < o.ChunkBytes {
			o.L1Bytes = o.ChunkBytes
		}
	}
	st := &ShardedStore{chunkSize: o.ChunkBytes}
	for i := 0; i < o.Segments; i++ {
		chunks := NewMapCache(max64(o.MapBytes/int64(o.Segments), 1), o.ChunkBytes)
		chunks.zapOnEvict = true // the segment owns the bytes
		st.segments = append(st.segments, &segment{
			store:  st,
			tag:    int32(i) + 1,
			chunks: chunks,
			fills:  make(map[string]*Fill),
		})
	}
	for i := 0; i < o.Shards; i++ {
		v := &storeView{
			store: st,
			id:    i,
			paths: NewPathCacheEvict(maxInt(o.PathEntries/o.Shards, 1), o.OnPathEvict),
			hdrs:  NewHeaderCache(maxInt(o.HeaderEntries/o.Shards, 1)),
		}
		if o.L1Bytes >= 0 {
			v.l1 = NewMapCache(o.L1Bytes, o.ChunkBytes)
		}
		st.views = append(st.views, v)
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

// Lookup probes the loop-private L1 first (the lock-free warm path),
// then the owner segment; a segment hit is replicated into the L1 so
// the path stays hot and shard-local next time. A chunk recorded
// under a different modTime is a miss — the caller's fill verifies the
// file's identity. A replica of another generation is dropped on the
// spot and the segment probed behind it: a stale replica must not
// shadow a current segment chunk, or every request on this shard would
// start a fill until the replica aged out.
func (v *storeView) Lookup(key ChunkKey, modTime int64) *Chunk {
	if v.l1 != nil {
		if c := v.l1.Lookup(key); c != nil {
			if c.ModTime == modTime {
				return c
			}
			v.l1.detach(c)
			v.l1.Release(c)
		}
	}
	seg := v.store.segmentFor(key.Path)
	seg.mu.Lock()
	c := seg.chunks.Lookup(key)
	if c != nil && c.ModTime != modTime {
		seg.chunks.Release(c)
		c = nil
	}
	seg.mu.Unlock()
	if c == nil {
		return nil
	}
	if v.l1 == nil {
		return c
	}
	return v.replicate(seg, c, modTime)
}

// replicate copies a segment hit into the L1 (sharing the immutable
// byte slice — replication costs index entries, not memory), returns
// the replica pinned, and drops the segment pin. An mmap-backed chunk
// is shared by reference: the replica acquires its own hold on the
// mapping, so the L1 and the segment can evict in either order
// without unmapping pages the other still serves. A replica of another
// generation is replaced, like a segment chunk. The generation comes
// from the caller, who matched or wrote it under the segment lock.
// (Key, Size, Data, ModTime and mapping are immutable once inserted,
// and the caller's pin keeps the chunk alive.)
func (v *storeView) replicate(seg *segment, c *Chunk, modTime int64) *Chunk {
	m := c.mapping
	if m != nil {
		m.Acquire()
	}
	rep := v.l1.insert(c.Key, c.Data, m, c.Size, modTime)
	rep.home = -(int32(v.id) + 1)
	seg.mu.Lock()
	seg.chunks.Release(c)
	seg.mu.Unlock()
	return rep
}

// Insert records a freshly read chunk in the owner segment (so every
// shard can hit it) and replicates it into the L1. A resident chunk of
// the same generation wins; one of another generation is replaced.
func (v *storeView) Insert(key ChunkKey, data []byte, size, modTime int64) *Chunk {
	seg := v.store.segmentFor(key.Path)
	seg.mu.Lock()
	c := seg.chunks.insert(key, data, nil, size, modTime)
	if c.home == 0 {
		c.home = seg.tag
	}
	seg.mu.Unlock()
	if v.l1 == nil {
		return c
	}
	return v.replicate(seg, c, modTime)
}

// Release unpins a chunk, dispatching on which tier owns it.
func (v *storeView) Release(c *Chunk) {
	home := c.home
	switch {
	case home < 0:
		v.l1.Release(c)
	case home > 0:
		seg := v.store.segments[home-1]
		seg.mu.Lock()
		seg.chunks.Release(c)
		seg.mu.Unlock()
	default:
		panic("cache: Release of a chunk this store does not own")
	}
}

// InvalidateFile drops the chunks of path recorded under modTime from
// this view's L1 and the owner segment, and dooms the in-flight fill
// if it is loading that generation.
func (v *storeView) InvalidateFile(path string, modTime int64, maxChunks int) {
	if v.l1 != nil {
		v.l1.InvalidateFile(path, modTime, maxChunks)
	}
	seg := v.store.segmentFor(path)
	seg.mu.Lock()
	seg.chunks.InvalidateFile(path, modTime, maxChunks)
	if f := seg.fills[path]; f != nil && f.modTime == modTime {
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
// cache.
func (v *storeView) JoinFillAt(key ChunkKey, size, modTime int64) (*Fill, bool) {
	path := key.Path
	seg := v.store.segmentFor(path)
	seg.mu.Lock()
	if f := seg.fills[path]; f != nil {
		seg.mu.Unlock()
		if f.size == size && f.modTime == modTime {
			v.store.fillsJoined.Add(1)
		}
		return f, false
	}
	f := newFill(seg, path, size, modTime, v.store.chunkSize)
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

// LocalStats snapshots the loop-private counters (owner loop only).
func (v *storeView) LocalStats() ViewStats {
	s := ViewStats{Paths: v.paths.Stats(), Headers: v.hdrs.Stats()}
	if v.l1 != nil {
		s.Chunks = v.l1.Stats()
	}
	return s
}
