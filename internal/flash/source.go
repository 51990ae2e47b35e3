package flash

import (
	"repro/internal/cache"
)

// bodySource is the unified response pipeline: every response —
// static, dynamic, or fixed-buffer — is produced by one source, which
// the event loop drives and the socket's owner (the connection's
// goroutine, or the loop itself under epoll) consumes, one writeItem
// at a time.
//
// Contract (every method runs on the event loop):
//
//   - next is invoked when the socket's owner can accept an item: once
//     when the response starts, and again after each non-final item
//     completes. The source must eventually hand exactly one item per
//     invocation to shard.queueItem — synchronously or from a posted
//     completion (a helper load, a dynamic producer) — or end the
//     response via shard.failConn. Push-style sources whose producer
//     queues items on its own may treat next as a no-op. A source
//     whose response is a single item marks it whole.
//   - release is invoked exactly once per queued item, by the loop:
//     from itemDone after the item was transmitted, or when the
//     pipeline discards it (ok reports which). The source drops the
//     resources the item carried — chunk pins, descriptor references —
//     and acks its producer, if any. The one exception is timing: a
//     whole item under the goroutine engine is committed when queued
//     (shard.commit), so release runs right there, before the bytes
//     are written, with item.chunks nil — the pins on its chunks have
//     moved to the connection's FIFO, which the loop unpins when the
//     conn goroutine reports the flush (shard.released) or the
//     connection ends (shard.connEnd). So a tracked item's pins are
//     the source's to release, a whole item's never are. Everything
//     else an item carries must be safe to drop at commit;
//     descriptor-window (sf) items are therefore never whole.
//   - abort is invoked when the response dies before its final item
//     completes (write failure, connection teardown). It may fire more
//     than once, and connection teardown also fires it after a
//     completed response; implementations must tolerate both. The
//     source stops producing and drops anything still held outside
//     queued items.
type bodySource interface {
	next(s *shard, c *conn)
	release(s *shard, c *conn, item writeItem, ok bool)
	abort(s *shard, c *conn)
}

// respond installs src as the connection's response pipeline and pulls
// the first item.
func (s *shard) respond(c *conn, src bodySource) {
	c.ls.src = src
	src.next(s, c)
}

// --- fixedSource ---

// fixedSource is the fixed-buffer implementation: the whole response —
// header plus any error/304/416/listing body — is one pre-assembled
// buffer. It holds no resources, so release and abort have nothing to
// do.
type fixedSource struct {
	data []byte
}

func (f *fixedSource) next(s *shard, c *conn) {
	s.queueItem(c, writeItem{data: f.data, last: true, whole: true})
}

func (f *fixedSource) release(*shard, *conn, writeItem, bool) {}

func (f *fixedSource) abort(*shard, *conn) {}

// --- chunkSource ---

// chunkSource is the copy transport for static bodies: it walks the
// chunk tier of the cache store (§5.4) across the response's byte
// window and hands it over in runs. A run is the stretch of
// consecutive chunks, from the walk's position, that are there without
// waiting — cache hits, and chunks the walk's fill has already
// published — cut off at the window's end, at the first chunk that is
// missing or still loading, or before its bytes would pass gatherCap.
// One run is one writeItem: the header (on the first) and every chunk
// window leave in a single writev (§5.5), and every chunk stays pinned
// until the item is released. A run that covers the whole window is
// the whole response and is marked so; anything shorter is a tracked
// item, and the walk goes on from where it stopped when that item
// completes. The epoll engine, which transmits one chunk window per
// item, is handed runs of one.
//
// A warm walk stays on the loop-private L1; a cold one subscribes to
// the single-flight fill for the file (coalescing concurrent misses
// into one disk pass) and streams chunks as the fill publishes them —
// parked on a chunk that has not landed yet, the source resumes via a
// posted loop message, never a blocked goroutine, so chunk i is on the
// wire before chunk i+1 is read, while a fill that outruns its reader
// is answered in one write. With coalescing disabled (or a fill it
// cannot join), each miss dispatches its own helper load, as in v1.
// Each chunk is looked up exactly once per visit — the walk's arrival,
// and again on every fill wake — whatever the run lengths: the cache's
// hit ratio does not depend on how the bytes are batched. The source
// holds one acquired reference to the entry descriptor for the whole
// walk — chunk loads between items must not find a descriptor that
// eviction closed — and drops it when the final item releases or the
// response aborts.
type chunkSource struct {
	pe   cache.PathEntry
	ref  *cache.FileRef // the walk's pin on the entry descriptor; may be nil
	hdr  []byte         // pending header bytes for the first item
	fill *cache.Fill    // the fill this walk subscribed to, if any
	// proxy marks a walk over a reverse-proxied entry (set after init,
	// which wholesale-resets the source): misses refill from the origin
	// pool instead of the disk, and restarts re-enter handleProxy.
	proxy *proxyHandler
	// gen distinguishes this walk from earlier ones on the same pooled
	// source: a fill wake posted for a finished response must not
	// drive the source after init re-arms it.
	gen uint32
	// Chunk walk over the absolute byte window [rangeOff, rangeEnd).
	firstChunk int // first chunk index of the response window
	endChunk   int // one past the last chunk index
	nextChunk  int
	rangeOff   int64
	rangeEnd   int64
	// missed notes that the lookup of nextChunk already missed and the
	// walk subscribed to the fill for it — the previous run ended there
	// — so the walk resumes at the fill rather than counting the same
	// lookup twice.
	missed bool
}

// init re-arms the walker for the byte window [off, off+n). Chunk
// sources are pooled per connection (one response at a time runs on a
// connection, and a source can only receive late helper callbacks
// while its own response is still in flight), so re-initializing in
// place is safe and keeps the static copy path allocation-free.
func (cs *chunkSource) init(s *shard, pe cache.PathEntry, hdr []byte, off, n int64) {
	ref := entryRef(pe)
	if ref != nil {
		ref.Acquire()
	}
	first := int(off / s.store.ChunkSize())
	*cs = chunkSource{
		pe:         pe,
		ref:        ref,
		hdr:        hdr,
		gen:        cs.gen + 1,
		firstChunk: first,
		endChunk:   int((off+n-1)/s.store.ChunkSize()) + 1,
		nextChunk:  first,
		rangeOff:   off,
		rangeEnd:   off + n,
	}
}

// dropRef releases the walk's descriptor pin (idempotent).
func (cs *chunkSource) dropRef() {
	if cs.ref != nil {
		cs.ref.Release()
		cs.ref = nil
	}
}

func (cs *chunkSource) next(s *shard, c *conn) { cs.walk(s, c, nil) }

// walk collects the run that starts at nextChunk into the connection's
// scratch and queues it as one item. ch, when non-nil, is nextChunk
// itself, already pinned (a helper load's result).
func (cs *chunkSource) walk(s *shard, c *conn, ch *cache.Chunk) {
	c.runChunks, c.runBodies = c.runChunks[:0], c.runBodies[:0]
	size := int64(0)
	idx := cs.nextChunk
	for {
		if ch == nil && !cs.missed {
			// "mincore says resident": send directly.
			ch = s.view.Lookup(cache.ChunkKey{Path: cs.pe.Translated, Index: idx}, cs.pe.ModTime)
		}
		if ch == nil {
			if len(c.runChunks) > 0 {
				// What is in hand leaves first. The fill is joined now, not
				// on resume: one that finishes while the run is written
				// would be gone by then, and started a second time.
				cs.missed = cs.joinFill(s)
				break
			}
			cs.missed = false
			if ch = cs.miss(s, c, idx); ch == nil {
				return // parked on the fill, waiting on a helper, or over
			}
		}
		lo, hi := cs.window(s, idx)
		if hi > int64(len(ch.Data)) {
			// The chunk no longer covers the promised window (file shrank
			// between identity checks): the response cannot be completed.
			s.view.Release(ch)
			for _, held := range c.runChunks {
				s.view.Release(held)
			}
			s.failConn(c)
			return
		}
		c.runChunks = append(c.runChunks, ch)
		c.runBodies = append(c.runBodies, ch.Data[lo:hi])
		size += hi - lo
		ch = nil
		idx++
		if idx == cs.endChunk || c.np != nil {
			break
		}
		if lo, hi := cs.window(s, idx); size+hi-lo > gatherCap {
			break
		}
	}
	item := writeItem{chunks: c.runChunks, bodies: c.runBodies, last: idx == cs.endChunk}
	if cs.nextChunk == cs.firstChunk {
		item.data = cs.hdr
		item.whole = item.last
	}
	cs.nextChunk = idx
	s.queueItem(c, item)
}

// window returns the part of chunk idx the response transmits, as
// offsets into the chunk: all of it, clamped to the response's byte
// window (which never reaches past the file's size).
func (cs *chunkSource) window(s *shard, idx int) (lo, hi int64) {
	base := int64(idx) * s.store.ChunkSize()
	return max(cs.rangeOff, base) - base, min(cs.rangeEnd, base+s.store.ChunkSize()) - base
}

// miss brings in chunk idx after its lookup missed: through the
// single-flight fill, then (fills disabled or unjoinable) a per-chunk
// helper read. It returns the chunk, pinned, when the fill already
// holds it; nil means the walk is parked on the fill (fillWake resumes
// it), waiting for the helper (whose completion resumes it), or over.
func (cs *chunkSource) miss(s *shard, c *conn, idx int) *cache.Chunk {
	if cs.joinFill(s) {
		gen := cs.gen
		ch, pending, err := cs.fill.ChunkAt(idx, func() {
			// Publish/fail notification, possibly from another
			// shard's helper: re-enter this walk on our loop.
			s.post(func() { cs.fillWake(s, c, gen) })
		})
		switch {
		case err != nil:
			cs.fillError(s, c, err)
			return nil
		case ch != nil:
			return ch
		case pending:
			// Parked: fillWake resumes the walk when the chunk
			// publishes (serve-while-fill — earlier chunks are
			// already on the wire).
			return nil
		}
		// The fill ended without holding the chunk (finished and
		// released its pins): it is in the cache, or the per-chunk
		// path reloads it.
		cs.fill = nil
		key := cache.ChunkKey{Path: cs.pe.Translated, Index: idx}
		if ch := s.view.Lookup(key, cs.pe.ModTime); ch != nil {
			return ch
		}
	}
	cs.loadChunk(s, c, idx)
	return nil
}

// joinFill subscribes the walk to the single-flight fill for its file,
// starting one if none is in flight, and reports whether the walk is
// on a fill. Proxied entries always coalesce: their only per-chunk
// fallback is a full origin refetch, so an unjoinable fill must
// converge onto a joinable one rather than fan out round trips.
func (cs *chunkSource) joinFill(s *shard) bool {
	if cs.fill == nil && (!s.cfg.Cache.DisableCoalescing || cs.proxy != nil) {
		pe := cs.pe
		if f, started := s.view.JoinFill(pe.Translated, pe.Size, pe.ModTime); f != nil {
			cs.fill = f
			if started {
				s.startFill(f, pe)
			}
		}
	}
	return cs.fill != nil
}

// fillWake re-enters the walk after a fill published the chunk it was
// parked on (or ended). Posted wakes can outlive the response that
// registered them — the generation, source identity, and connection
// state checks drop stale ones.
func (cs *chunkSource) fillWake(s *shard, c *conn, gen uint32) {
	if cs.gen != gen || c.ls.src != bodySource(cs) ||
		c.failed || c.writeDone || c.inFlight {
		return
	}
	cs.walk(s, c, nil)
}

// fillError ends the walk on a failed fill. A stale-fill failure on
// the first chunk restarts the request against the file's fresh
// identity (nothing has been sent); anything later can only close the
// connection, as the stated Content-Length is unmeetable.
func (cs *chunkSource) fillError(s *shard, c *conn, err error) {
	pe := cs.pe
	cs.fill = nil
	reqPath := c.ls.req.Path
	if cs.proxy != nil {
		// Proxy entries key the path cache by the cache key, not the
		// request path.
		reqPath = pe.Translated
	}
	s.invalidateFile(reqPath, pe)
	if err == cache.ErrFillStale && cs.nextChunk == cs.firstChunk &&
		!c.inFlight && !c.failed && !c.writeDone && c.ls.src == bodySource(cs) {
		ph := cs.proxy
		cs.dropRef() // the restart builds its own pipeline
		if ph != nil {
			s.handleProxy(c, c.ls.req, ph)
			return
		}
		s.handleRequest(c, c.ls.req)
		return
	}
	s.failConn(c)
}

// loadChunk dispatches one helper load for chunk idx — the v1
// per-chunk miss path, used when coalescing is off or the in-flight
// fill has a different identity. The loop never touches the disk; the
// walk goes on, from the loaded chunk, when the helper reports.
func (cs *chunkSource) loadChunk(s *shard, c *conn, idx int) {
	pe := cs.pe
	if cs.proxy != nil {
		// No per-chunk origin read exists. Before the first byte the
		// walk can restart cleanly — the posted re-entry re-joins (or
		// restarts) a fill; posting rather than recursing keeps a
		// conflicting in-flight fill (about to fail stale) from turning
		// the restart into unbounded recursion. Mid-walk, the committed
		// Content-Length is unmeetable.
		if idx == cs.firstChunk && !c.inFlight && !c.failed &&
			!c.writeDone && c.ls.src == bodySource(cs) {
			ph := cs.proxy
			cs.dropRef()
			s.post(func() {
				if c.failed || c.writeDone || c.ls.src != bodySource(cs) {
					return
				}
				s.handleProxy(c, c.ls.req, ph)
			})
			return
		}
		s.failConn(c)
		return
	}
	key := cache.ChunkKey{Path: pe.Translated, Index: idx}
	off, n := s.store.ChunkRange(pe.Size, idx)
	ref := cs.ref
	if ref != nil {
		// The helper's own pin (from the walk's live one): the read
		// survives even if the walk aborts while the job is queued.
		ref.Acquire()
	}
	s.helpers.submit(helperJob{
		kind:   jobChunk,
		fsPath: pe.Translated,
		file:   ref,
		off:    off,
		n:      n,
		size:   pe.Size,
		done: func(res helperResult) {
			if res.err != nil {
				// The file vanished or changed size mid-response; the
				// stated Content-Length can no longer be honored.
				res.releaseMapped()
				s.invalidateFile(c.ls.req.Path, pe)
				s.failConn(c)
				return
			}
			if res.modTime != pe.ModTime {
				// Stale caches detected by the mapping layer (§5.3-5.4):
				// invalidate and restart this request against the new file.
				res.releaseMapped()
				s.invalidateFile(c.ls.req.Path, pe)
				if idx == cs.firstChunk && !c.inFlight && !c.failed &&
					!c.writeDone && c.ls.src == bodySource(cs) {
					cs.dropRef() // the restart builds its own pipeline
					s.handleRequest(c, c.ls.req)
					return
				}
				s.failConn(c)
				return
			}
			cs.walk(s, c, s.insertChunk(key, &res, pe.ModTime))
		},
	})
}

// insertChunk records a helper's chunk result through the view: the
// mapped insert — the cache chunk adopts the result's view of the
// file's mapping — or the plain insert when the helper had to read.
func (s *shard) insertChunk(key cache.ChunkKey, res *helperResult, modTime int64) *cache.Chunk {
	if res.mapped != nil {
		m := res.mapped
		res.mapped = nil // ownership moves to the chunk
		return s.view.InsertMapped(key, m, int64(len(res.data)), modTime)
	}
	return s.view.Insert(key, res.data, int64(len(res.data)), modTime)
}

// startFill hands a freshly registered fill to its producer: one
// jobFill on the helper pool of the shard that owns the path (by
// hash), so every shard agrees on who performs the single disk pass.
func (s *shard) startFill(f *cache.Fill, pe cache.PathEntry) {
	if ph, ok := pe.File.(*proxyHandler); ok {
		s.startProxyRefill(ph, f)
		return
	}
	ref := entryRef(pe)
	if ref != nil {
		// The producer's own descriptor pin: the fill survives path
		// entry eviction and the end of the subscribing response.
		ref.Acquire()
	}
	owner := s.srv.shards[cache.OwnerShard(pe.Translated, len(s.srv.shards))]
	owner.helpers.submit(helperJob{
		kind:   jobFill,
		fsPath: pe.Translated,
		file:   ref,
		fill:   f,
	})
}

// release unpins the item's chunks (none when the connection's FIFO
// took the pins over); the final item also ends the walk's descriptor
// pin — a whole item needs no further chunk load, so dropping it at
// commit is safe.
func (cs *chunkSource) release(s *shard, c *conn, item writeItem, ok bool) {
	for _, ch := range item.chunks {
		s.view.Release(ch)
	}
	if item.last {
		cs.dropRef()
	}
}

func (cs *chunkSource) abort(*shard, *conn) { cs.dropRef() }

// --- sendfileSource ---

// sendfileSource is the zero-copy transport for static bodies: a
// single item carrying the response header plus the cached
// descriptor's byte window, which is shipped with sendfile(2) on
// Linux — file bytes never enter userspace or the map cache — or the
// portable pread+writev loop elsewhere. The source holds one acquired
// descriptor reference from creation until the item's release, so
// path-cache eviction can never close the file mid-transfer.
type sendfileSource struct {
	ref    *cache.FileRef // acquired by the creator, released with the item
	hdr    []byte
	off, n int64 // absolute body byte window [off, off+n)
}

func (ss *sendfileSource) next(s *shard, c *conn) {
	s.queueItem(c, writeItem{data: ss.hdr, sf: ss.ref, sfOff: ss.off, sfLen: ss.n, last: true})
}

func (ss *sendfileSource) release(s *shard, c *conn, item writeItem, ok bool) {
	if item.sf != nil {
		item.sf.Release()
	}
}

func (ss *sendfileSource) abort(*shard, *conn) {}

// useSendfile decides the static transport for a response body of n
// bytes: bodies at or above the threshold ship straight from the
// cached descriptor (no double-buffering of large files in the map
// cache); smaller bodies — or a disabled threshold, or an entry with
// no cached descriptor — walk the chunk cache, which stays the right
// call for small hot files (bytes cached in memory, header merged with
// the first chunk into one writev).
func (s *shard) useSendfile(n int64, pe cache.PathEntry) bool {
	return s.cfg.SendfileThreshold > 0 && n >= s.cfg.SendfileThreshold &&
		entryRef(pe) != nil
}
