package flash

import (
	"repro/internal/cache"
)

// chunkSource is the chunk-tier transport for static bodies: it walks
// the chunk tier of the cache store (§5.4) across the response's byte
// window and hands it over in runs. A run is the stretch of
// consecutive chunks, from the walk's position, that are there without
// waiting — cache hits, and chunks the walk's fill has already
// published — cut off at the window's end, at the first chunk that is
// missing or still loading, or before its bytes would pass gatherCap.
// One run is one writeItem: for chunks that hold bytes, the header (on
// the first) and every chunk window leave in a single writev (§5.5);
// for window chunks, the header by writev and the run's file range by
// one sendfile. Every chunk stays pinned until the run is reported
// written. A run of bytes that covers the whole window is the whole
// response and is marked so; anything else is written at once, and the
// walk goes on from where it stopped when the run's flush report comes
// back (shard.released) — the walk is the one response the loop drives
// past its first item.
//
// A warm walk pins its chunks in their owner segments; a cold one subscribes to
// the single-flight fill for the file (coalescing concurrent misses
// into one disk pass) and streams chunks as the fill publishes them —
// parked on a chunk that has not landed yet, the source resumes via a
// posted loop message, never a blocked goroutine, so chunk i is on the
// wire before chunk i+1 is read, while a fill that outruns its reader
// is answered in one write. The fill is the only way a missing chunk
// is produced: a walk whose fill ended without the chunk, or that met
// the fill of another file generation, waits for that fill to end and
// joins the next one. Each chunk is looked up exactly once per visit —
// the walk's arrival, and again on every fill wake — whatever the run
// lengths: the cache's hit ratio does not depend on how the bytes are
// batched. The source holds one acquired reference to the entry
// descriptor for the whole walk — a fill it starts between items must
// not find a descriptor that eviction closed — and drops it when the
// response ends.
type chunkSource struct {
	pe   cache.PathEntry
	ref  *cache.FileRef // the walk's pin on the entry descriptor; may be nil
	hdr  []byte         // pending header bytes for the first item
	fill *cache.Fill    // the fill this walk subscribed to, if any
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
	// missed notes that the lookup of nextChunk already missed — the
	// previous run ended there, or the walk is about to join a fresh
	// fill — so the walk resumes at the fill rather than counting the
	// same lookup twice. carry is nextChunk, pinned, when the previous
	// run ended at it because it did not match the run (see walk).
	missed bool
	carry  *cache.Chunk
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

// next collects and queues the walk's next run: its first, or the one
// after a run whose flush was reported.
func (cs *chunkSource) next(s *shard, c *conn) { cs.walk(s, c, nil) }

// walk collects the run that starts at nextChunk into the connection's
// scratch and queues it as one item. held, when non-nil, is nextChunk
// pinned by the fill wake that resumed the walk. The visit still looks
// the chunk up, so the hit accounting is the same however the walk got
// here; held stands in only if the lookup misses.
//
// A run is of one kind: chunks whose bytes it gathers, or window chunks
// read through one descriptor, which leave as the item's descriptor
// window — header by writev, body by one sendfile. A chunk that does
// not match the run's first (another descriptor of the same file,
// filled by another loop's fill) ends the run and, already looked up
// and pinned, is carried to the next.
func (cs *chunkSource) walk(s *shard, c *conn, held *cache.Chunk) {
	c.runChunks, c.runBodies = c.runChunks[:0], c.runBodies[:0]
	size, sfOff := int64(0), int64(0)
	idx := cs.nextChunk
	for {
		var ch *cache.Chunk
		switch {
		case cs.carry != nil:
			ch, cs.carry = cs.carry, nil
		case !cs.missed:
			// "mincore says resident": send directly.
			ch = s.view.Lookup(cache.ChunkKey{Path: cs.pe.Translated, Index: idx}, cs.pe.ModTime)
		}
		if held != nil {
			if ch == nil {
				ch = held
			} else {
				s.view.Release(held)
			}
			held = nil
		}
		if ch == nil {
			if len(c.runChunks) > 0 {
				// What is in hand leaves first. The fill is joined now, not
				// on resume: one that finishes while the run is written
				// would be gone by then, and started a second time.
				if cs.joinFill(s, idx) {
					s.startFill(cs.fill, cs.pe)
				}
				cs.missed = true
				break
			}
			cs.missed = false
			if ch = cs.miss(s, c, idx); ch == nil {
				return // parked on a fill, rejoining one, or over
			}
		}
		lo, hi := cs.window(s, idx)
		if hi > ch.Size {
			// The chunk no longer covers the promised window (file shrank
			// between identity checks): the response cannot be completed.
			s.view.Release(ch)
			for _, run := range c.runChunks {
				s.view.Release(run)
			}
			s.failConn(c)
			return
		}
		if len(c.runChunks) > 0 && !sameRun(c.runChunks[0], ch) {
			cs.carry = ch
			break
		}
		c.runChunks = append(c.runChunks, ch)
		switch {
		case ch.Data != nil:
			c.runBodies = append(c.runBodies, ch.Data[lo:hi])
		case len(c.runChunks) == 1:
			sfOff = ch.Off + lo
		}
		size += hi - lo
		idx++
		if idx == cs.endChunk {
			break
		}
		if lo, hi := cs.window(s, idx); size+hi-lo > gatherCap {
			break
		}
	}
	item := writeItem{chunks: c.runChunks, bodies: c.runBodies, last: idx == cs.endChunk}
	if first := c.runChunks[0]; first.Data == nil {
		// The item's own descriptor reference, released with its pins.
		item.sf, item.sfOff, item.sfLen = first.File.Acquire(), sfOff, size
	}
	if cs.nextChunk == cs.firstChunk {
		item.data = cs.hdr
		item.whole = item.last && item.sf == nil
	}
	cs.nextChunk = idx
	s.commit(c, item)
}

// sameRun reports whether ch may join a run that starts with first:
// chunks with bytes gather into one writev whoever mapped or read them,
// and window chunks — which have no Data — leave by one sendfile, so
// theirs must be one descriptor.
func sameRun(first, ch *cache.Chunk) bool {
	if first.Data != nil || ch.Data != nil {
		return first.Data != nil && ch.Data != nil
	}
	return first.File == ch.File
}

// window returns the part of chunk idx the response transmits, as
// offsets into the chunk: all of it, clamped to the response's byte
// window (which never reaches past the file's size).
func (cs *chunkSource) window(s *shard, idx int) (lo, hi int64) {
	base := int64(idx) * s.store.ChunkSize()
	return max(cs.rangeOff, base) - base, min(cs.rangeEnd, base+s.store.ChunkSize()) - base
}

// miss brings in chunk idx after its lookup missed, through the
// single-flight fill for the file — the one way a missing chunk is
// produced, for files and proxied entries alike. It returns the chunk,
// pinned, when the fill already holds it; nil means the walk is parked
// on a fill (fillWake resumes it), is about to join a fresh one, or is
// over.
//
// The path has one fill at a time. When the one in flight loads another
// generation of the file, the walk parks on its last chunk — a failure,
// which is what a doom becomes, wakes it too — and joins again once it
// has ended; a proxied key's fill that has not announced its entry is
// another generation until it does. The fill that follows runs under
// the walk's own identity, and the producer's check after it took the
// bytes decides whether that generation is still current; a stale walk
// ends in fillError.
func (cs *chunkSource) miss(s *shard, c *conn, idx int) *cache.Chunk {
	started := cs.joinFill(s, idx)
	f, want := cs.fill, idx
	size, modTime, chunks := f.Identity()
	other := size != cs.pe.Size || modTime != cs.pe.ModTime
	if other {
		want = chunks - 1
	}
	gen := cs.gen
	ch, pending, err := f.ChunkAt(want, func() {
		// Publish/fail notification, possibly from another shard's
		// helper: re-enter this walk on our loop. A published chunk of
		// the walk's own generation is taken here, while the fill still
		// pins it — by the time the loop runs the wake, the fill may be
		// over and eviction may have dropped the chunk.
		var held *cache.Chunk
		if !other {
			held, _, _ = f.ChunkAt(want, nil)
		}
		s.post(func() { cs.fillWake(s, c, gen, held) })
	})
	if started {
		// Parked before the producer runs: one that outran the loop could
		// otherwise finish, and a small budget drop the chunk, before the
		// walk that started the fill asked for it.
		s.startFill(f, cs.pe)
	}
	switch {
	case pending:
		// Parked: fillWake resumes the walk when the chunk publishes or
		// the fill ends (serve-while-fill — earlier chunks are already
		// on the wire).
		return nil
	case other:
		// The other generation's fill is over, however it ended. One that
		// finished may still be waking its subscribers, and so still hand
		// out its chunk, pinned: not the walk's bytes.
		if ch != nil {
			s.view.Release(ch)
		}
	case err != nil:
		cs.fillError(s, c, err)
		return nil
	case ch != nil:
		return ch
	default:
		// The fill ended without holding the chunk (finished and
		// released its pins): it is in the cache, or it was evicted
		// since and a fresh fill brings it back.
		key := cache.ChunkKey{Path: cs.pe.Translated, Index: idx}
		if ch := s.view.Lookup(key, cs.pe.ModTime); ch != nil {
			cs.fill = nil
			return ch
		}
	}
	// Join again from a posted re-entry rather than by recursion: the
	// next fill, too, may be over before the walk asks it for the chunk.
	cs.fill = nil
	cs.missed = true
	s.post(func() { cs.fillWake(s, c, gen, nil) })
	return nil
}

// joinFill subscribes the walk to the single-flight fill for its file,
// registering one if none is in flight and chunk idx, whose lookup
// missed, is still not resident. It reports whether it registered one,
// whose producer the caller starts (startFill).
func (cs *chunkSource) joinFill(s *shard, idx int) bool {
	if cs.fill != nil {
		return false
	}
	pe := cs.pe
	f, started := s.view.JoinFillAt(cache.ChunkKey{Path: pe.Translated, Index: idx}, pe.Size, pe.ModTime)
	cs.fill = f
	return started
}

// fillWake re-enters the walk after a fill published the chunk it was
// parked on (held, pinned) or ended, or to join a fresh fill. Posted
// wakes can outlive the response that registered them — the
// generation, source identity, and connection state checks drop stale
// ones, and their pin with them.
func (cs *chunkSource) fillWake(s *shard, c *conn, gen uint32, held *cache.Chunk) {
	if cs.gen != gen || c.ls.src != cs ||
		c.failed || c.writeDone || c.inFlight {
		if held != nil {
			s.view.Release(held)
		}
		return
	}
	cs.walk(s, c, held)
}

// fillError ends the walk on a failed fill. A stale-fill failure on
// the first chunk restarts the request against the file's fresh
// identity (nothing has been sent); anything later can only close the
// connection, as the stated Content-Length is unmeetable.
func (cs *chunkSource) fillError(s *shard, c *conn, err error) {
	cs.fill = nil
	s.invalidateFile(c.ls.req.Path, cs.pe)
	if err == cache.ErrFillStale && cs.nextChunk == cs.firstChunk &&
		!c.inFlight && !c.failed && !c.writeDone && c.ls.src == cs {
		s.dropSource(c) // the restart builds its own walk
		if ph, ok := cs.pe.File.(*proxyHandler); ok {
			s.handleProxy(c, c.ls.req, ph)
			return
		}
		s.handleRequest(c, c.ls.req)
		return
	}
	s.failConn(c)
}

// startFill hands a freshly registered fill to its producer: one
// jobFill on this shard's helper pool — the single disk pass, or for a
// proxied key the single origin exchange. The segment's fill registry
// already makes it single-flight: only the caller that registered the
// fill gets here.
func (s *shard) startFill(f *cache.Fill, pe cache.PathEntry) {
	job := helperJob{kind: jobFill, fsPath: pe.Translated, fill: f}
	job.origin, _ = pe.File.(*proxyHandler)
	if ref := entryRef(pe); ref != nil {
		// The producer's own descriptor pin: the fill survives path
		// entry eviction and the end of the subscribing response.
		job.file = ref.Acquire()
	}
	s.helpers.submit(job)
}

// end drops the walk's descriptor pin and a carried chunk's pin
// (idempotent): a finished walk starts no further fill.
func (cs *chunkSource) end(s *shard) {
	if cs.ref != nil {
		cs.ref.Release()
		cs.ref = nil
	}
	if cs.carry != nil {
		s.view.Release(cs.carry)
		cs.carry = nil
	}
}

// useSendfile decides whether a response body of n bytes skips the
// chunk cache: at or above a positive threshold it ships straight from
// the cached descriptor (no double-buffering of large files in the
// chunk tier, no fill). Smaller bodies — every body under a negative
// threshold, and an entry with no cached descriptor — walk the chunk
// cache, which stays the right call for small hot files (bytes cached
// in memory, header merged with the chunk into one writev) and keeps
// the chunk tier's fills and hit accounting for files of several
// chunks, whose windows leave by sendfile too.
func (s *shard) useSendfile(n int64, pe cache.PathEntry) bool {
	return s.cfg.SendfileThreshold > 0 && n >= s.cfg.SendfileThreshold &&
		entryRef(pe) != nil
}
