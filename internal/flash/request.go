package flash

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/httpmsg"
)

// All functions in this file run on the event loop.

// handleExchange starts processing one exchange from the reader's
// pre-computed plan: a head the reader refused outright first, then
// Host enforcement, then protocol-level rejections, then either the v2
// handler dispatch or the static path.
func (s *shard) handleExchange(c *conn, plan exchangePlan) {
	req := plan.req
	c.ls = loopState{req: req, status: 200}
	s.markBusy(c)
	if req == nil {
		// A head the reader refused: it never parsed, or it outgrew
		// MaxHeaderBytes. Its status stands even under Shutdown, and the
		// connection closes; the access log names the request
		// errorResponse synthesizes, not the previous exchange's.
		s.errorResponse(c, plan.reject, false)
		return
	}
	if s.shutdown {
		s.errorResponse(c, 503, false)
		return
	}
	if req.Major == 1 && req.Minor >= 1 && req.Host() == "" {
		// RFC 7230 §5.4: a 1.1 request without Host gets a 400 — before
		// any other verdict (405/411/413/417), because the MUST applies
		// to every 1.1 request, reject-bound or not. planRoute has
		// already cleared KeepAlive when an unread body makes resync
		// impossible; a body whose drain may fail (stranded Expect,
		// unbounded chunked) would make the reader close right after,
		// so the 400 must not promise persistence either (mirrors
		// responseWriter.finish).
		keep := req.KeepAlive
		if plan.body != nil && plan.body.mayCloseOnDrain() {
			keep = false
		}
		s.errorResponse(c, 400, keep)
		return
	}
	if plan.reject != 0 {
		var extra []string
		if plan.reject == 405 && plan.allow != "" {
			extra = []string{"Allow: " + plan.allow}
		}
		s.errorResponseExtra(c, plan.reject, req.KeepAlive, extra)
		return
	}
	if plan.rt != nil {
		if ph, ok := plan.rt.Handler.(*proxyHandler); ok {
			s.stats.ProxyRequests++
			if (req.Method == "GET" || req.Method == "HEAD") && plan.body == nil {
				s.handleProxy(c, req, ph)
				return
			}
			// Request shapes the cache cannot serve (methods with side
			// effects, request bodies) relay pass-through.
			s.stats.ProxyPassThrough++
		}
		s.startHandler(c, req, plan.rt.Handler, plan.body)
		return
	}
	s.handleRequest(c, req)
}

// runBatch runs the exchanges in c's posted batch slots from slot i, in
// order, for as long as each one's response is staged on the spot
// (commit). It stops at the first exchange that replied instead — the
// batch's last, one that ends the connection or would pass gatherCap —
// or that has to wait for a helper, a fill or a write; the goroutine
// posts a continuation once that exchange is over. The exchanges of
// one run share one reading of the clock.
func (s *shard) runBatch(c *conn, i int) {
	if s.cfg.RevalidateInterval >= 0 {
		s.batchNow = s.cfg.Clock().UnixNano()
	}
	for n := int(c.slots); i < n; i++ {
		staged := c.staged
		c.stageNext = i+1 < n
		plan, _ := c.slot(i)
		s.handleExchange(c, *plan)
		if c.staged != staged+1 {
			break
		}
	}
	c.stageNext = false
	s.batchNow = 0
}

// now is the wall clock in unix nanos for the revalidation check: the
// running batch's reading, or a fresh one.
func (s *shard) now() int64 {
	if s.batchNow != 0 {
		return s.batchNow
	}
	return s.cfg.Clock().UnixNano()
}

// handleRequest runs the static-file path for one request (also the
// re-entry point when a chunk walk detects a changed file and restarts
// the exchange).
func (s *shard) handleRequest(c *conn, req *httpmsg.Request) {
	c.ls = loopState{req: req, status: 200}
	if req.Method != "GET" && req.Method != "HEAD" {
		s.errorResponseExtra(c, 405, req.KeepAlive, []string{"Allow: GET, HEAD"})
		return
	}

	// Pathname translation (§5.2): cache hit answers immediately; a
	// miss ships the stat to a helper. Entries older than the
	// revalidation interval are re-stat'ed (also on a helper) so file
	// modifications are noticed within a bounded window.
	if pe, ok := s.view.GetPath(req.Path); ok {
		if s.cfg.RevalidateInterval < 0 ||
			s.now()-pe.CheckedAt < int64(s.cfg.RevalidateInterval) {
			s.afterTranslate(c, pe)
			return
		}
		if s.overloaded() {
			// Degrade instead of queueing: the entry is merely past its
			// revalidation interval, not known-bad. Serve it as-is and
			// let a calmer moment re-stat the file.
			s.stats.ShedRevalidates++
			s.afterTranslate(c, pe)
			return
		}
		// The stat submission lives in its own method so its completion
		// closure — which captures pe — cannot force the fresh-hit
		// path's pe to escape: the cache hit above must stay free of
		// per-request heap traffic.
		s.revalidateEntry(c, req, pe)
		return
	}
	fsPath, ok := s.translate(req.Path)
	if !ok {
		s.errorResponse(c, 404, req.KeepAlive)
		return
	}
	if s.overloaded() {
		// A true miss needs a helper stat; under a deep backlog that
		// queue wait dwarfs any useful response time. Shed fast.
		s.shedRequest(c, req.KeepAlive)
		return
	}
	s.helpers.submit(helperJob{
		kind:     jobStat,
		fsPath:   fsPath,
		index:    s.cfg.IndexFile,
		listings: s.cfg.EnableListings,
		done: func(res helperResult) {
			if res.err != nil {
				s.errorResponse(c, res.status, req.KeepAlive)
				return
			}
			if res.isListing {
				s.serveListing(c, res.data)
				return
			}
			pe := cache.PathEntry{
				Translated: res.fsPath,
				File:       s.adoptFile(res.file),
				Size:       res.size,
				ModTime:    res.modTime,
				CheckedAt:  s.cfg.Clock().UnixNano(),
				ETag:       httpmsg.MakeETag(res.size, res.modTime),
			}
			s.putEntry(req.Path, pe)
			s.afterTranslate(c, pe)
		},
	})
}

// revalidateEntry re-stats a stale pathname-cache entry on a helper,
// then either refreshes the entry's check time (unchanged file) or
// retires every derived cache entry and adopts the new identity.
func (s *shard) revalidateEntry(c *conn, req *httpmsg.Request, pe cache.PathEntry) {
	s.helpers.submit(helperJob{
		kind:     jobStat,
		fsPath:   pe.Translated,
		index:    s.cfg.IndexFile,
		listings: s.cfg.EnableListings,
		done: func(res helperResult) {
			if res.err != nil {
				s.invalidateFile(req.Path, pe)
				s.errorResponse(c, res.status, req.KeepAlive)
				return
			}
			if res.isListing {
				s.invalidateFile(req.Path, pe)
				s.serveListing(c, res.data)
				return
			}
			cur, live := s.view.PeekPath(req.Path)
			if res.modTime == pe.ModTime && res.size == pe.Size &&
				res.fsPath == pe.Translated && live && cur.File == pe.File {
				// Unchanged, and the entry (with its descriptor) is
				// still the cached one: keep it, drop the freshly
				// opened duplicate, just bump the check time.
				closeFile(res.file)
				pe.CheckedAt = s.cfg.Clock().UnixNano()
				s.putEntry(req.Path, pe)
				s.afterTranslate(c, pe)
				return
			}
			// Changed — or the entry was evicted/replaced while the
			// stat was in flight, in which case the old descriptor
			// may already be released and must not be re-adopted.
			// Retire every derived cache entry and adopt the new
			// identity (and its descriptor).
			s.invalidateFile(req.Path, pe)
			fresh := cache.PathEntry{
				Translated: res.fsPath,
				File:       s.adoptFile(res.file),
				Size:       res.size,
				ModTime:    res.modTime,
				CheckedAt:  s.cfg.Clock().UnixNano(),
				ETag:       httpmsg.MakeETag(res.size, res.modTime),
			}
			s.putEntry(req.Path, fresh)
			s.afterTranslate(c, fresh)
		},
	})
}

// translate maps a request path to a candidate filesystem path,
// applying the "~user" convention. It rejects escapes from the roots.
func (s *shard) translate(reqPath string) (string, bool) {
	clean := httpmsg.CleanPath(reqPath)
	if s.cfg.UserDirBase != "" && strings.HasPrefix(clean, "/~") {
		rest := clean[2:]
		slash := strings.IndexByte(rest, '/')
		user := rest
		tail := "/"
		if slash >= 0 {
			user = rest[:slash]
			tail = rest[slash:]
		}
		if user == "" {
			return "", false
		}
		return s.cfg.UserDirBase + "/" + user + "/" + s.cfg.UserDirSuffix +
			httpmsg.CleanPath(tail), true
	}
	return s.cfg.DocRoot + clean, true
}

// afterTranslate continues once the file identity is known, ending in
// the transport decision: HEAD and empty bodies answer with a fixed
// buffer, bodies at or above SendfileThreshold ship zero-copy from the
// cached descriptor, and everything else walks the chunk cache.
func (s *shard) afterTranslate(c *conn, pe cache.PathEntry) {
	req := c.ls.req

	// The entity tag is precomputed at path-entry insertion, so the
	// per-request conditional checks never build strings.
	etag := pe.ETag

	// Conditional GET: If-None-Match takes precedence over
	// If-Modified-Since (RFC 7232 §6).
	if etag != "" && req.IfNoneMatch != "" {
		if httpmsg.ETagMatch(req.IfNoneMatch, etag) {
			s.notModified(c, pe, etag)
			return
		}
	} else if !req.IfModifiedSince.IsZero() && pe.ModTime <= req.IfModifiedSince.Unix() {
		s.notModified(c, pe, etag)
		return
	}

	// Single-range requests (RFC 7233) apply to GET only; an If-Range
	// validator mismatch falls back to the full body.
	status, off, length := 200, int64(0), pe.Size
	contentRange := ""
	if req.Range != nil && req.Method == "GET" &&
		(req.IfRange == "" || httpmsg.MatchIfRange(req.IfRange, etag, pe.ModTime)) {
		o, n, ok := req.Range.Resolve(pe.Size)
		if !ok {
			s.rangeNotSatisfiable(c, pe.Size)
			return
		}
		status, off, length = 206, o, n
		contentRange = fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, pe.Size)
	}
	c.ls.status = status

	// Response header (§5.3), cached against the file's mtime, keyed by
	// range-ness so partial and full variants never collide. All range
	// windows share ONE variant slot per path (hit only when the stored
	// window matches): byte windows are client-chosen and effectively
	// unbounded, so per-window keys would let one file's ranges flush
	// hot full-response headers out of the shared LRU.
	slot := ""
	if status == 206 {
		slot = rangeVariantSlot
	}
	var hdr []byte
	if he, ok := s.view.GetHeader(pe.Translated, slot, pe.ModTime); ok &&
		he.Size == pe.Size && he.Variant == contentRange {
		hdr = he.Header
	} else {
		hdr = httpmsg.BuildHeader(httpmsg.ResponseMeta{
			Status:        status,
			Proto:         req.Proto,
			ContentType:   httpmsg.ContentTypeFor(pe.Translated),
			ContentLength: length,
			ModTime:       time.Unix(pe.ModTime, 0),
			Date:          s.cfg.Clock(),
			KeepAlive:     req.KeepAlive,
			ServerName:    s.cfg.ServerName,
			ETag:          etag,
			ContentRange:  contentRange,
		}, true)
		s.view.PutHeader(pe.Translated, slot, cache.HeaderEntry{
			Header: hdr, Size: pe.Size, ModTime: pe.ModTime, Variant: contentRange,
		})
	}
	// The cached header was built for some request's persistence mode;
	// patch if it disagrees (into the connection's scratch buffer, so
	// even the mismatch path allocates nothing once warm).
	hdr = headerFor(req, s.fixPersistence(c, hdr, req))

	if req.Method == "HEAD" || length == 0 {
		s.respondFixed(c, hdr)
		return
	}
	if s.useSendfile(length, pe) {
		ref := entryRef(pe).Acquire() // the response's pin on the descriptor
		src := &c.sfSrc
		*src = sendfileSource{ref: ref, hdr: hdr, off: off, n: length}
		s.respond(c, src)
		return
	}
	src := &c.chunkSrc
	src.init(s, pe, hdr, off, length)
	s.respond(c, src)
}

// respondFixed starts a fixed-buffer response through the connection's
// pooled source.
func (s *shard) respondFixed(c *conn, data []byte) {
	c.fixedSrc.data = data
	s.respond(c, &c.fixedSrc)
}

// Wire fragments fixPersistence patches.
var (
	protoBytes11 = []byte("HTTP/1.1")
	protoBytes10 = []byte("HTTP/1.0")
	kaBytes      = []byte("Connection: keep-alive\r\n")
	clBytes      = []byte("Connection: close\r\n")
)

// fixPersistence rewrites the request-specific parts of a cached
// response header when the current request disagrees with the one the
// header was built for: the Connection header, and the status line's
// protocol version ("HTTP/1.0" and "HTTP/1.1" are the same length, so
// the swap never disturbs the §5.5 alignment). An untouched header is
// returned as-is; a patched one is assembled in the connection's
// header scratch (valid until the exchange completes), so neither
// outcome allocates once the connection is warm.
func (s *shard) fixPersistence(c *conn, hdr []byte, req *httpmsg.Request) []byte {
	proto := protoBytes11
	if responseProto(req) != "HTTP/1.1" {
		proto = protoBytes10
	}
	needProto := !bytes.HasPrefix(hdr, proto)
	var from, to []byte
	if req.KeepAlive {
		if bytes.Contains(hdr, clBytes) {
			from, to = clBytes, kaBytes
		}
	} else if bytes.Contains(hdr, kaBytes) {
		from, to = kaBytes, clBytes
	}
	if !needProto && from == nil {
		return hdr
	}
	buf := c.hdrBuf[:0]
	if from != nil {
		i := bytes.Index(hdr, from)
		buf = append(buf, hdr[:i]...)
		buf = append(buf, to...)
		buf = append(buf, hdr[i+len(from):]...)
	} else {
		buf = append(buf, hdr...)
	}
	if needProto {
		copy(buf, proto)
	}
	c.hdrBuf = buf
	return buf
}

// queueItem hands an item to the connection's goroutine, which owns
// the socket, through the reply channel — the goroutine is parked on
// it whenever an exchange is in flight and the loop sends only when no
// item is outstanding, so this never blocks the loop. An item that is its
// response's whole is committed here instead of being tracked. An item
// for a connection that already failed is dropped, and the exchange
// ended with it.
func (s *shard) queueItem(c *conn, item writeItem) {
	if c.failed || c.writeDone {
		// Let the source release any pins the item carries (and ack its
		// producer, if any).
		if src := c.ls.src; src != nil {
			src.release(s, c, item, false)
		}
		s.signalNext(c, false)
		return
	}
	if c.inFlight {
		panic("flash: queueItem while an item is in flight")
	}
	if item.whole {
		s.commit(c, item)
		return
	}
	c.inFlight = true
	c.reply <- connReply{kind: replyItem, item: item, staged: c.takeStaged()}
}

// commit ends an exchange at queue time: the response is this one item,
// so nothing about it needs the loop again — the counters, the access
// log line (with the byte count the response will carry), the busy
// gauge and the source are settled now. The one thing that must
// outlive the write, the pins on the item's chunks, moves to the
// connection's FIFO until a released message reports the flush; a
// flush that falls short takes the byte counts back and fails the
// connection there.
//
// Alone, the item travels to the conn goroutine together with the
// persistence verdict: the exchange is two blocking hops (post, reply)
// instead of four. Inside a batch with an exchange still to run
// (stageNext), a response that keeps the connection and fits under
// gatherCap is staged on the gather list instead — its inline bytes
// copied out before the next exchange reuses the header scratch, its
// chunk windows out of the run scratch — and the loop goes on to the
// next exchange (runBatch) with no hop at all. Any other response goes
// back in a reply that counts the staged ones ahead of it; the
// goroutine corks it, flushing first when it would pass the cap, so a
// client that stops reading still pins at most the cap plus one
// response.
func (s *shard) commit(c *conn, item writeItem) {
	n := int64(item.wireLen())
	c.ls.bytesSent += n
	s.stats.BytesSent += n
	s.stats.BytesCopied += n
	if len(item.chunks) == 0 {
		c.pins = append(c.pins, nil) // item.pins() counts this entry
	}
	c.pins = append(c.pins, item.chunks...)
	if src := c.ls.src; src != nil {
		rel := item
		rel.chunks = nil // the pins are the FIFO's now
		src.release(s, c, rel, true)
	}
	keep := s.settle(c)
	if c.stageNext && keep && c.fits(&item) {
		c.stage(&item)
		c.staged++
		return
	}
	c.reply <- connReply{kind: replyCommitted, item: item, keep: keep, staged: c.takeStaged()}
}

// takeStaged returns the responses staged since the last reply, for
// the reply about to be sent.
func (c *conn) takeStaged() int32 {
	n := c.staged
	c.staged = 0
	return n
}

// released runs when the conn goroutine reports a flush of committed
// responses holding n FIFO entries between them: their pins come off,
// oldest first. A flush that fell short of the committed byte counts
// (ok false) gives the missing bytes back and fails the connection,
// which its goroutine is already leaving.
func (s *shard) released(c *conn, n int, short int64, ok bool) {
	for ; n > 0 && c.pinHead < len(c.pins); n-- {
		if ch := c.pins[c.pinHead]; ch != nil {
			s.view.Release(ch)
			c.pins[c.pinHead] = nil
		}
		c.pinHead++
	}
	if c.pinHead == len(c.pins) {
		c.pins, c.pinHead = c.pins[:0], 0
	}
	if !ok {
		s.stats.BytesSent -= short
		s.stats.BytesCopied -= short
		s.markFailed(c)
		c.writeDone = true
	}
}

// itemDone runs after an item was transmitted (or discarded): byte
// accounting, the source's release hook (unpinning chunks and
// descriptors, acking producers), then either the next pull from the
// source or the end of the response.
func (s *shard) itemDone(c *conn, item writeItem, wrote, sfWrote int64, ok bool) {
	ls := &c.ls
	c.inFlight = false
	ls.bytesSent += wrote
	s.stats.BytesSent += wrote
	s.stats.BytesSendfile += sfWrote
	s.stats.BytesCopied += wrote - sfWrote
	src := ls.src
	if src != nil {
		src.release(s, c, item, ok && !c.failed)
	}
	if !ok {
		s.markFailed(c)
	}

	switch {
	case c.failed:
		if src != nil {
			src.abort(s, c)
		}
		c.writeDone = true
		s.signalNext(c, false)
	case item.last:
		s.finishResponse(c)
	default:
		if src != nil {
			src.next(s, c)
		}
	}
}

// settle closes the books on a response whose last item is written or
// committed, and returns the persistence verdict. Persistence is
// decided by the request's (possibly downgraded) keep-alive flag: 4xx
// responses are correctly framed, so the connection survives them — a
// pipelined burst keeps its in-order framing across a mid-burst 404.
func (s *shard) settle(c *conn) bool {
	ls := &c.ls
	s.stats.Responses++
	keep := ls.req != nil && ls.req.KeepAlive && !s.shutdown
	if ls.req != nil && s.cfg.AccessLog != nil {
		s.logAccess(c.remoteAddr(), ls.req, ls.status, ls.bytesSent)
	}
	if !keep {
		c.writeDone = true
	}
	ls.src = nil
	s.markIdle(c)
	return keep
}

// finishResponse completes an exchange whose items the loop tracked.
func (s *shard) finishResponse(c *conn) {
	s.signalNext(c, s.settle(c))
}

// signalNext ends the exchange: it answers the parked conn goroutine
// and clears the busy gauge — the one funnel every completed or failed
// tracked response passes through. The reply
// counts the responses a batch staged ahead of the exchange, so they
// leave before a close. The send does not block: a reply is already
// waiting only when the connection has failed, and then the goroutine
// is leaving anyway (nothing is staged while a reply waits).
func (s *shard) signalNext(c *conn, keep bool) {
	s.markIdle(c)
	select {
	case c.reply <- connReply{kind: replyEnd, keep: keep, staged: c.staged}:
		c.staged = 0
	default:
	}
}

// markBusy flips a conn into the busy state for the idle gauge.
func (s *shard) markBusy(c *conn) {
	if !c.busy {
		c.busy = true
		s.busyConns++
	}
}

// markIdle is markBusy's inverse.
func (s *shard) markIdle(c *conn) {
	if c.busy {
		c.busy = false
		s.busyConns--
	}
}

// markFailed transitions a connection into the failed state, counting
// the error exactly once — a single dying response can otherwise be
// reported several times (write failure, then a failConn from a
// still-pending helper callback).
func (s *shard) markFailed(c *conn) {
	if !c.failed {
		c.failed = true
		s.stats.Errors++
	}
}

// failConn aborts a connection mid-response (Content-Length already
// committed, so the only correct signal is a close). With an item in
// flight, its itemDone ends the exchange.
func (s *shard) failConn(c *conn) {
	s.markFailed(c)
	if src := c.ls.src; src != nil {
		src.abort(s, c)
	}
	if !c.inFlight {
		c.writeDone = true
		s.signalNext(c, false)
	}
}

// connEnd runs once the connection goroutine is done with c: the
// response pipeline (if one is still installed) is aborted so it drops
// any resources it holds outside queued items, an item the goroutine
// never took is released, and so is every pin still on the FIFO
// (responses it left corked, never received, or flushed last — that
// flush is reported here: short and ok are its released figures).
func (s *shard) connEnd(c *conn, short int64, ok bool) {
	s.ended++
	s.markIdle(c)
	src := c.ls.src
	if src != nil {
		src.abort(s, c)
	}
	c.writeDone = true
	if c.inFlight {
		// Every item the goroutine takes is reported before it exits, so
		// this one is still in the channel (nothing else fits beside it).
		c.inFlight = false
		select {
		case r := <-c.reply:
			if src != nil {
				src.release(s, c, r.item, false)
			} else if r.item.sf != nil {
				r.item.sf.Release()
			}
		default:
		}
	}
	s.released(c, len(c.pins)-c.pinHead, short, ok)
}

// rangeVariantSlot is the header-cache variant shared by all 206
// responses of one path (the entry's Variant field names the window).
const rangeVariantSlot = "range"

// invalidateFile drops every cache entry derived from one generation
// of a file. The pathname entry — and the cache's reference to its
// descriptor — is only dropped if pe is still the cached identity: a
// concurrent response may already have invalidated it and a fresh
// entry (with a fresh descriptor) taken its place, which must survive,
// as must the fresh generation's chunks and the fill loading them (and
// a proxied key's entry, kept in its segment).
func (s *shard) invalidateFile(reqPath string, pe cache.PathEntry) {
	if cur, ok := s.view.PeekPath(reqPath); ok && cur.File == pe.File {
		s.view.InvalidatePath(reqPath)
		releaseEntryFile(pe.File)
	}
	// A mismatched mtime drops the entry — every header variant.
	s.view.GetHeader(pe.Translated, "", -1)
	s.view.GetHeader(pe.Translated, rangeVariantSlot, -1)
	for _, slot := range nmSlots {
		s.view.GetHeader(pe.Translated, slot, -1)
	}
	s.view.InvalidateFile(pe.Translated, pe.Size, pe.ModTime)
}

// putEntry records a translation, dropping the cache's reference to
// any different entry it replaces (two concurrent misses on one path
// each open a descriptor; the loser's must not leak). The key is
// cloned: reqPath is usually a zero-copy view into the connection's
// head buffer, which dies with the exchange, while the cache entry
// outlives it.
func (s *shard) putEntry(reqPath string, pe cache.PathEntry) {
	old, ok := s.view.PeekPath(reqPath)
	if ok && old.File != pe.File {
		releaseEntryFile(old.File)
	}
	if !ok {
		// Fresh insert: the map must own the key. A replace reuses the
		// existing owned key, so revalidation bumps don't clone.
		reqPath = strings.Clone(reqPath)
	}
	s.view.PutPath(reqPath, pe)
}

// entryRef extracts the refcounted descriptor from a path entry.
func entryRef(pe cache.PathEntry) *cache.FileRef {
	r, _ := pe.File.(*cache.FileRef)
	return r
}

// adoptFile wraps a descriptor freshly opened by a stat helper into
// the refcounted handle a path entry carries (the count starts at one:
// the cache's reference). The file's mapping, once a disk helper makes
// it, is parked on the same handle and shares its lifetime.
func (s *shard) adoptFile(f *os.File) any {
	if f == nil {
		return nil
	}
	return cache.NewFileRef(f, &s.srv.mapStats)
}

// releaseEntryFile drops the cache's reference to an entry descriptor;
// the file closes once in-flight readers release theirs.
func releaseEntryFile(v any) {
	if r, ok := v.(*cache.FileRef); ok && r != nil {
		r.Release()
	}
}

// closeFile closes a raw descriptor a helper opened but the cache
// declined to adopt.
func closeFile(f *os.File) {
	if f != nil {
		f.Close()
	}
}

// 304 header-cache variant slots, one per (proto, persistence) shape
// so every cached form is byte-exact for its request (the entry's
// Variant field carries the entity tag it was built with).
const (
	nmSlot11KA = "304:1.1:ka"
	nmSlot11CL = "304:1.1:cl"
	nmSlot10KA = "304:1.0:ka"
	nmSlot10CL = "304:1.0:cl"
)

// nmSlots lists every 304 variant slot (for invalidation).
var nmSlots = [...]string{nmSlot11KA, nmSlot11CL, nmSlot10KA, nmSlot10CL}

// nmSlot picks the 304 variant slot for a request ("" when the shape
// is not cacheable — HTTP/0.9, which cannot carry conditionals anyway).
func nmSlot(req *httpmsg.Request) string {
	switch {
	case req.Proto == "HTTP/1.1" && req.KeepAlive:
		return nmSlot11KA
	case req.Proto == "HTTP/1.1":
		return nmSlot11CL
	case req.Proto == "HTTP/1.0" && req.KeepAlive:
		return nmSlot10KA
	case req.Proto == "HTTP/1.0":
		return nmSlot10CL
	}
	return ""
}

// notModified sends a 304, echoing the entity tag a 200 would carry
// (RFC 7232 §4.1). Like the 200 header, the rendered 304 is cached
// against the file's identity — keyed by the request shape so each
// variant is byte-exact — making the revalidation path allocation-free
// on a warm cache.
func (s *shard) notModified(c *conn, pe cache.PathEntry, etag string) {
	req := c.ls.req
	c.ls.status = 304
	slot := nmSlot(req)
	if slot != "" {
		if he, ok := s.view.GetHeader(pe.Translated, slot, pe.ModTime); ok &&
			he.Size == pe.Size && he.Variant == etag {
			s.respondFixed(c, he.Header)
			return
		}
	}
	hdr := httpmsg.BuildHeader(httpmsg.ResponseMeta{
		Status:        304,
		Proto:         req.Proto,
		ContentLength: -1,
		Date:          s.cfg.Clock(),
		KeepAlive:     req.KeepAlive,
		ServerName:    s.cfg.ServerName,
		ETag:          etag,
	}, true)
	if slot != "" {
		s.view.PutHeader(pe.Translated, slot, cache.HeaderEntry{
			Header: hdr, Size: pe.Size, ModTime: pe.ModTime, Variant: etag,
		})
	}
	s.respondFixed(c, hdr)
}

// rangeNotSatisfiable sends a 416 carrying the resource's actual size
// so the client can retry with a valid range (RFC 7233 §4.4).
func (s *shard) rangeNotSatisfiable(c *conn, size int64) {
	req := c.ls.req
	c.ls.status = 416
	body := httpmsg.ErrorBody(416)
	hdr := httpmsg.BuildHeader(httpmsg.ResponseMeta{
		Status:        416,
		Proto:         responseProto(req),
		ContentType:   "text/html",
		ContentLength: int64(len(body)),
		ContentRange:  fmt.Sprintf("bytes */%d", size),
		Date:          s.cfg.Clock(),
		KeepAlive:     req.KeepAlive,
		ServerName:    s.cfg.ServerName,
	}, true)
	s.respondFixed(c, append(append([]byte{}, hdr...), body...))
}

// responseProto echoes the request's protocol version in responses
// (0.9 and pre-parse failures fall back to 1.0).
func responseProto(req *httpmsg.Request) string {
	if req != nil && req.Proto == "HTTP/1.1" {
		return "HTTP/1.1"
	}
	return "HTTP/1.0"
}

// headerFor strips the response header for HTTP/0.9 requests, which
// predate response headers entirely: the body alone is the response.
func headerFor(req *httpmsg.Request, hdr []byte) []byte {
	if req != nil && req.Major == 0 {
		return nil
	}
	return hdr
}

// errorResponse sends a complete error response.
func (s *shard) errorResponse(c *conn, status int, keepAlive bool) {
	s.errorResponseExtra(c, status, keepAlive, nil)
}

// overloaded reports whether this shard should shed new disk- or
// origin-bound work: the helper backlog is past the configured
// watermark. Consulted only on miss and revalidation paths — a warm
// cache hit never pays for it.
func (s *shard) overloaded() bool {
	d := s.cfg.ShedQueueDepth
	return d > 0 && s.helpers.depth() > d
}

// shedRequest answers one request with the overload verdict: a fast
// 503 carrying Retry-After, instead of joining a backlog that has
// already lost the latency battle.
func (s *shard) shedRequest(c *conn, keepAlive bool) {
	s.stats.ShedRequests++
	s.errorResponseExtra(c, 503, keepAlive, s.retryHdr)
}

// errorResponseExtra sends a complete error response carrying
// additional header lines (e.g. the Allow list of a 405).
func (s *shard) errorResponseExtra(c *conn, status int, keepAlive bool, extra []string) {
	if c.ls.req == nil {
		c.ls = loopState{req: &httpmsg.Request{Method: "GET", Target: "-", Proto: "HTTP/1.0", Major: 1}}
	}
	ls := &c.ls
	ls.status = status
	if status == 404 {
		s.stats.NotFound++
	}
	body := httpmsg.ErrorBody(status)
	hdr := httpmsg.BuildHeader(httpmsg.ResponseMeta{
		Status:        status,
		Proto:         responseProto(ls.req),
		ContentType:   "text/html",
		ContentLength: int64(len(body)),
		Date:          s.cfg.Clock(),
		KeepAlive:     keepAlive && status < 500,
		ServerName:    s.cfg.ServerName,
		ExtraHeaders:  extra,
	}, true)
	if ls.req != nil {
		ls.req.KeepAlive = keepAlive && status < 500
	}
	hdr = headerFor(ls.req, hdr)
	s.respondFixed(c, append(append([]byte{}, hdr...), body...))
}
