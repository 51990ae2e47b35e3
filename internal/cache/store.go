package cache

// View is one event loop's facade over a ShardedStore: the pathname and
// response-header caches are loop-private (exactly v1's semantics),
// while the chunk methods front the store's shared, hash-partitioned
// owner segments — one index entry per chunk, so a lookup or release
// takes one short hold of that chunk's segment lock. Not safe for
// concurrent use; every call must come from the owning loop.
type View interface {
	// Pathname translation cache (§5.2), loop-private.
	GetPath(name string) (PathEntry, bool)
	PeekPath(name string) (PathEntry, bool)
	PutPath(name string, e PathEntry)
	InvalidatePath(name string) bool
	EachPath(fn func(name string, e PathEntry))
	ClearPaths()

	// Response-header cache (§5.3), loop-private. GetHeader with a
	// mismatched modTime drops the entry and misses (self-invalidating,
	// as in v1); variant "" is the full 200 response.
	GetHeader(path, variant string, modTime int64) (HeaderEntry, bool)
	PutHeader(path, variant string, e HeaderEntry)
	HeaderLen() int

	// Chunk tier (§5.4). Lookup returns the chunk pinned, or nil when
	// it is absent or belongs to a different file generation than
	// modTime. Insert records a chunk read into a heap buffer under the
	// given identity and returns it pinned; a resident chunk of another
	// generation is replaced, never retagged. (The server's producers
	// are fills; Insert serves tools that replay the store.) Release
	// unpins a chunk obtained from Lookup, Insert, or Fill.ChunkAt.
	Lookup(key ChunkKey, modTime int64) *Chunk
	Insert(key ChunkKey, data []byte, size, modTime int64) *Chunk
	Release(c *Chunk)
	// InvalidateFile retires one generation (size, modTime) of path: it
	// drops the chunks recorded under modTime from the owner segment and
	// a proxied key's entry of that generation, and dooms the in-flight
	// fill if it is loading that generation (its next publish fails with
	// ErrFillStale). Chunks, an entry and a fill of any other generation
	// survive, so a late invalidation by a reader of the stale
	// generation cannot undo the replacement already loading.
	InvalidateFile(path string, size, modTime int64)

	// JoinFill coalesces a cold miss: it returns the in-flight fill
	// for path, registering this caller as one more subscriber, or
	// creates one (started=true — the caller must arrange for a
	// producer to Publish into it). The fill is never nil. One of a
	// different (size, modTime) identity is returned with started=false
	// and not counted as a join: the path has one fill at a time, so
	// the caller waits for that one to end (ChunkAt on its last chunk)
	// and joins again.
	JoinFill(path string, size, modTime int64) (f *Fill, started bool)
	// JoinFillAt is JoinFill for a caller whose lookup of key missed.
	// When no fill is in flight and key is resident under modTime after
	// all — a fill published it and retired since the lookup — no fill
	// starts: the one returned is over, and its ChunkAt sends the
	// caller back to the cache. Nor does a proxied key whose entry is
	// another generation by now: the fill returned failed ErrFillStale.
	JoinFillAt(key ChunkKey, size, modTime int64) (f *Fill, started bool)

	// A proxied key's record, in its owner segment: Entry returns its
	// last announced entry. JoinEntry returns it if fresh at now (Expires
	// > now), else the key's fill, registering one with no identity
	// (started=true: the caller arranges the producer, which announces).
	Entry(key string) (PathEntry, bool)
	JoinEntry(key string, now int64) (pe PathEntry, f *Fill, started bool)

	// LocalStats snapshots this view's loop-private counters.
	LocalStats() ViewStats
}

// ViewStats are one view's loop-private counters. Chunks counts every
// Lookup made through the view as a hit or a miss; the segments behind
// it are in SharedStats.
type ViewStats struct {
	Paths   Stats
	Headers Stats
	Chunks  Stats
}

// SharedStats snapshot the store-global chunk state.
type SharedStats struct {
	// Chunks is the owner-segment tier: every byte here is shared by
	// all shards (the v2 fix for v1's per-shard duplication).
	Chunks MapCacheStats
	// UsedBytes is the segment tier's current resident size.
	UsedBytes int64
	// Entries counts every view's lookups of proxied keys' entries.
	Entries Stats
	// ActiveFills counts fills currently in flight.
	ActiveFills int
	Fills       FillStats
}

// FillStats count the single-flight fill lifecycle across the store.
type FillStats struct {
	// Started counts fills created (each is at most one disk pass, or
	// one origin exchange of a proxied key).
	Started uint64
	// Joined counts requests that coalesced onto an existing fill of
	// their own generation instead of starting one.
	Joined uint64
	// Completed and Failed split finished fills by outcome.
	Completed uint64
	Failed    uint64
}

// Add returns the field-wise sum of two counter sets.
func (f FillStats) Add(o FillStats) FillStats {
	f.Started += o.Started
	f.Joined += o.Joined
	f.Completed += o.Completed
	f.Failed += o.Failed
	return f
}
