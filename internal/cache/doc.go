// Package cache implements the cache layer of the Flash web server
// (§5 of the paper) behind a unified store API.
//
// # API
//
// [ShardedStore] owns the byte budget, the shared chunk tier, and the
// fill registry. [View] is one event-loop shard's handle onto the
// store; every per-request operation (path lookup, header lookup,
// chunk pin/release, fill subscription) goes through the shard's own
// View. Its chunk tier is the paper's mapped-file cache, whose chunks
// are of three kinds, fixed at insert, that the tiers do not tell
// apart — the LRU, the budget, pins, fills and generation checks treat
// them alike:
//
//   - A mapped chunk, for a file of one chunk: the file is mapped once,
//     whole, by the first disk helper that needs its bytes, and the
//     mapping is parked on the file's [FileRef] ([FileRef.Map]); the
//     chunk's Data is the mapping's bytes, which the helper touches
//     ([FileRef.Touch]) and hands to the store (Fill.PublishFile with
//     bytes).
//   - A window chunk, for every chunk of a file of several: a file
//     offset and a size, and no bytes (Fill.PublishFile without
//     bytes). The helper only makes the window resident in the page
//     cache — mincore over the parked mapping ([FileRef.Resident]),
//     which faults nothing in, and a pread into its own scratch buffer
//     if pages are missing — and the server sends it by sendfile(2)
//     from the descriptor. The process never maps a window's bytes in,
//     touches them or zaps them.
//   - A heap chunk: a producer that cannot map a file of one chunk — a
//     platform without mmap, a filesystem that refuses — or that has no
//     file at all, a reverse-proxy origin body, reads into a heap buffer
//     and publishes that (Fill.Publish).
//
// A file's descriptor and its mapping have one lifetime and one count,
// the FileRef's: the path entry holds a reference, so does each mapped
// or window chunk of the file while it is cached, and so does anything
// that acquired one — a response, a fill. Evicting a mapped chunk zaps
// its pages (MADV_DONTNEED) and keeps the address range, so a refill
// after eviction costs page faults, not an mmap/munmap pair — §5.4's
// point that map/unmap is the expensive part; evicting either kind
// drops its reference. The zaps queue up and leave in batches, one
// process_madvise per 16 spans or 1 MiB where the kernel takes it. The
// last reference to go cancels the file's queued zaps, unmaps the
// mapping and closes the descriptor, so no response, fill subscriber
// or writev gather can lose the bytes it reads. Open and mapped files
// are thereby bounded by the path entries the caches hold plus the
// files with chunks resident, mapped pages by the chunk budget plus
// the queue's 1 MiB.
//
// Files are expected to be replaced by rename. An in-place overwrite
// is visible through live mappings and cached windows (the helpers
// check a file's identity after they made a chunk's bytes resident, so
// a rewrite they can see fails the fill); an in-place truncation fails
// the fill that touches or reads the missing pages ([ErrMapFault], or a
// short read), and a cached window sent past the new end of file comes
// up short.
//
// The underlying structures are the paper's three caches:
//
//   - [PathCache]: pathname translation cache (requested name → file),
//     holding a refcounted descriptor-and-mapping ([FileRef]) so
//     eviction can never close or unmap a file under an in-flight read
//   - [HeaderCache]: precomputed HTTP response headers, invalidated
//     when the underlying file changes
//   - [MapCache]: file chunks — mapped bytes, descriptor windows or
//     heap bytes — with reference counting and a lazy-unmap LRU free
//     list
//
// # One chunk index
//
// [NewShardedStore] keeps pathname and header caches private per shard
// (their per-shard revalidation is the staleness mechanism) and keeps
// chunks in a set of hash-partitioned, mutex-guarded owner segments
// shared by all shards. Each chunk has one index entry, in the owner
// segment keyed by hash(path), and every lookup, insert, release and
// invalidation goes there: a warm hit takes one short hold of that
// segment's lock to pin the chunk and one to release it. The byte
// budget belongs to the store, not the shards — changing the shard
// count does not change the effective cache size.
//
// # Single-flight fills and serve-while-fill
//
// A cold file is read by one [Fill]: the first miss starts it
// (JoinFill), every later miss for the same path and generation
// subscribes to it, and the producer — a helper of the shard whose miss
// registered the fill — publishes chunk after chunk as the sequential
// disk pass lands them.
// Subscribers park a callback per wanted chunk (ChunkAt) and are woken
// as their chunk publishes, so readers stream a partially-filled file
// instead of waiting for the last byte. Published chunks are pinned
// until the fill finishes, which lets an active fill exceed the byte
// budget rather than evict its own output, and a woken subscriber can
// take its chunk before the pin drops.
//
// The fill is the one producer of chunks: a server never reads a
// single missing chunk on its own. A path has one fill at a time; a
// reader of another generation of the file gets the fill in flight,
// waits for its end and joins again, and a reader whose missed chunk is
// resident after all starts no fill (JoinFillAt). Invalidation dooms an
// in-flight fill of the invalidated generation ([ErrFillStale]). Every
// chunk carries the generation it was read under, fixed at insert: a
// chunk of another generation is a miss at lookup and is replaced,
// never relabelled, at insert, so bytes from two generations of a file
// never meet in one response.
//
// # One record per proxied key
//
// A reverse-proxied key's owner segment keeps its entry (Entry) beside
// its fill: one record under one lock, read by every view. A request
// with no fresh entry joins the fill (JoinEntry), registered before its
// size is known; the origin exchange announces the entry under the lock
// (Fill.Announce) — storing it before the fill can retire, and retiring
// another generation's chunks — wakes the requests parked on it
// (Fill.Entry), then publishes chunks or finishes with none. A walk
// meeting the fill before its announce waits as for another
// generation's; a walk of a generation the entry no longer holds starts
// no fill; invalidation drops the entry only while it is that one.
//
// The same data structures serve both the real Flash server (where
// chunks hold file bytes) and the simulated architectures (where
// chunks hold only sizes), so the Figure 11 optimization-breakdown
// experiment toggles exactly the code a production build would run.
//
// The underlying caches are not safe for concurrent use — in the AMPED
// design each View belongs to a single event-loop goroutine (§4.2).
// Only the shared tier, reached by chunk operations, fills and proxied
// keys' entries, synchronizes (one short mutex hold per segment touch).
package cache
