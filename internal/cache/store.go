package cache

// Store is the unified cache layer of the v2 architecture: one object
// subsuming the pathname, response-header, and mapped-chunk caches
// (the §5 trio), carved into per-event-loop Views plus a shared chunk
// tier with single-flight fills. NewShardedStore is the one
// implementation.
//
// Concurrency contract: methods on Store itself are safe from any
// goroutine. A View is owned by exactly one event loop — its methods
// must only be called from that loop, mirroring the zero-lock
// invariant the per-shard caches had in v1. Chunks and Fills handed
// out by a View may cross goroutines (writer goroutines transmit
// chunk bytes; helper goroutines publish into fills).
type Store interface {
	// Shards returns how many Views the store was built with.
	Shards() int
	// View returns event loop i's private facade over the store.
	View(i int) View

	// ChunkSize is the chunk granularity in bytes; NumChunks and
	// ChunkRange expose the chunk geometry of a file of a given size
	// (shared by every tier, so walkers need no per-tier math).
	ChunkSize() int64
	NumChunks(size int64) int
	ChunkRange(size int64, index int) (off, n int64)

	// SharedStats snapshots the cross-shard state: the owner-segment
	// chunk tier and the fill counters.
	SharedStats() SharedStats

	// Close releases store-global resources. Views must not be used
	// afterwards. (Resources held inside entries — e.g. descriptor
	// references in PathEntry.File — are the owner's to release first,
	// via EachPath/ClearPaths.)
	Close()
}

// View is one event loop's facade over a Store: the pathname and
// response-header caches are loop-private (exactly v1's semantics),
// while the chunk methods front a two-tier design — a loop-private L1
// of replicated hot chunks over the store's shared, hash-partitioned
// owner segments. Not safe for concurrent use; every call must come
// from the owning loop.
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
	// modTime. A hit in the shared tier is replicated into the L1 so
	// the next lookup is loop-local and lock-free. Insert records a
	// chunk read into a heap buffer under the given identity and
	// returns it pinned; InsertMapped does the same for a chunk whose
	// bytes are a view of a mapping (the chunk adopts m's reference). Release unpins a chunk obtained from Lookup, Insert,
	// InsertMapped, or Fill.ChunkAt, whichever tier owns it.
	Lookup(key ChunkKey, modTime int64) *Chunk
	Insert(key ChunkKey, data []byte, size, modTime int64) *Chunk
	InsertMapped(key ChunkKey, m *MmapRef, size, modTime int64) *Chunk
	Release(c *Chunk)
	// InvalidateFile retires one generation of path: it drops the
	// chunks recorded under modTime from the L1 and the owner segment,
	// and dooms the in-flight fill if it is loading that generation
	// (its next publish fails with ErrFillStale). Chunks and a fill of
	// any other generation survive, so a late invalidation by a reader
	// of the stale generation cannot undo the replacement already
	// loading. Other loops' L1 replicas are untouched — each loop
	// retires its own on revalidation, exactly the per-shard staleness
	// window v1 had.
	InvalidateFile(path string, modTime int64, maxChunks int)

	// JoinFill coalesces a cold miss: it returns the in-flight fill
	// for path, registering this caller as one more subscriber, or
	// creates one (started=true — the caller must arrange for a
	// producer to Publish into it). A nil fill means an in-flight fill
	// exists but for a different (size, modTime) identity; the caller
	// falls back to per-chunk reads, which re-verify identity anyway.
	JoinFill(path string, size, modTime int64) (f *Fill, started bool)

	// LocalStats snapshots this view's loop-private counters.
	LocalStats() ViewStats
}

// ViewStats are one view's loop-private counters. Chunks covers the
// L1 replica tier only; the shared segment tier is in SharedStats.
type ViewStats struct {
	Paths   Stats
	Headers Stats
	Chunks  MapCacheStats
}

// SharedStats snapshot the store-global chunk state.
type SharedStats struct {
	// Chunks is the owner-segment tier: every byte here is shared by
	// all shards (the v2 fix for v1's per-shard duplication).
	Chunks MapCacheStats
	// UsedBytes is the segment tier's current resident size.
	UsedBytes int64
	// ActiveFills counts fills currently in flight.
	ActiveFills int
	Fills       FillStats
}

// FillStats count the single-flight fill lifecycle across the store.
type FillStats struct {
	// Started counts fills created (each is at most one disk pass).
	Started uint64
	// Joined counts requests that coalesced onto an existing fill
	// instead of dispatching their own reads.
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
