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
		// httpmsg.MaxHeaderLen. Its status stands even under Shutdown,
		// and the connection closes; the access log names the request
		// errorResponse synthesizes, not the previous exchange's.
		s.errorResponse(c, plan.reject, false)
		return
	}
	if s.srv.stopping.Load() {
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

// now is the wall clock (Config.Clock) in unix nanos that freshness is
// judged by — path revalidation, a proxied entry's expiry and stale
// window: the running batch's reading, or a fresh one.
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
		listings: s.cfg.EnableListings,
		done: func(res helperResult) {
			if res.err != nil {
				s.errorResponse(c, res.status, req.KeepAlive)
				return
			}
			if res.isListing {
				s.respondBody(c, httpmsg.ResponseMeta{Status: 200}, res.data)
				return
			}
			pe := s.newEntry(res)
			s.putEntry(req.Path, pe)
			s.afterTranslate(c, pe)
		},
	})
}

// revalidateEntry re-checks a stale pathname-cache entry on a helper
// (revalidateJob), then either refreshes the entry's check time
// (unchanged file) or retires every derived cache entry and adopts the
// new identity.
func (s *shard) revalidateEntry(c *conn, req *httpmsg.Request, pe cache.PathEntry) {
	s.helpers.submit(helperJob{
		kind:     jobRevalidate,
		fsPath:   pe.Translated,
		listings: s.cfg.EnableListings,
		size:     pe.Size,
		modTime:  pe.ModTime,
		done: func(res helperResult) {
			if res.err != nil {
				s.invalidateFile(req.Path, pe)
				s.errorResponse(c, res.status, req.KeepAlive)
				return
			}
			if res.isListing {
				s.invalidateFile(req.Path, pe)
				s.respondBody(c, httpmsg.ResponseMeta{Status: 200}, res.data)
				return
			}
			cur, live := s.view.PeekPath(req.Path)
			if res.modTime == pe.ModTime && res.size == pe.Size &&
				res.fsPath == pe.Translated && live && cur.File == pe.File {
				// Unchanged, and the entry (with its descriptor) is
				// still the cached one: keep it, drop a freshly opened
				// duplicate if the helper had to open one, just bump the
				// check time.
				closeFile(res.file)
				pe.CheckedAt = s.cfg.Clock().UnixNano()
				s.putEntry(req.Path, pe)
				s.afterTranslate(c, pe)
				return
			}
			if res.file == nil {
				// Unchanged, but the entry was evicted or replaced while
				// the stat was in flight, and the helper opened nothing:
				// the old descriptor may already be released and must not
				// be re-adopted. Translate afresh.
				s.handleRequest(c, req)
				return
			}
			// Changed — or the entry was evicted/replaced while the
			// stat was in flight, in which case the old descriptor
			// may already be released and must not be re-adopted.
			// Retire every derived cache entry and adopt the new
			// identity (and its descriptor).
			s.invalidateFile(req.Path, pe)
			fresh := s.newEntry(res)
			s.putEntry(req.Path, fresh)
			s.afterTranslate(c, fresh)
		},
	})
}

// newEntry records a stat helper's result as a path entry, adopting
// the descriptor it opened. The entity tag and content type are derived
// here, once per stat, so the header build reads them like a proxied
// key's origin values.
func (s *shard) newEntry(res helperResult) cache.PathEntry {
	return cache.PathEntry{
		Translated:  res.fsPath,
		File:        s.adoptFile(res.file),
		Size:        res.size,
		ModTime:     res.modTime,
		CheckedAt:   s.cfg.Clock().UnixNano(),
		ETag:        httpmsg.MakeETag(res.size, res.modTime),
		ContentType: httpmsg.ContentTypeFor(res.fsPath),
	}
}

// translate maps a request path to a candidate filesystem path,
// applying the "~user" convention. It rejects escapes from the roots:
// a user of "." or ".." would name UserDirBase or its parent.
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
		if user == "" || user == "." || user == ".." {
			return "", false
		}
		return s.cfg.UserDirBase + "/" + user + "/" + s.cfg.UserDirSuffix +
			httpmsg.CleanPath(tail), true
	}
	return s.cfg.DocRoot + clean, true
}

// afterTranslate answers a request once its entity is known — a
// file's path entry, or a proxied key's entry with the origin's
// metadata in place of the stat results — ending in the transport
// decision: HEAD and empty bodies answer with a fixed buffer, bodies at
// or above SendfileThreshold ship zero-copy from the cached descriptor
// (files only: a proxied entry has none), and everything else walks the
// chunk cache.
func (s *shard) afterTranslate(c *conn, pe cache.PathEntry) {
	req := c.ls.req

	// The entity tag is precomputed at path-entry insertion, so the
	// per-request conditional checks never build strings.
	etag := pe.ETag
	lm := lastModified(pe)

	// Preconditions first (RFC 9110 §13.2.2): If-Match, or else an
	// If-Unmodified-Since the entity has been modified since, fails 412.
	if (req.IfMatch != "" && !httpmsg.MatchIfMatch(req.IfMatch, etag)) ||
		(req.IfMatch == "" && !req.IfUnmodifiedSince.IsZero() && !lm.IsZero() &&
			pe.ModTime > req.IfUnmodifiedSince.Unix()) {
		s.respondBody(c, httpmsg.ResponseMeta{Status: 412}, httpmsg.ErrorBody(412))
		return
	}

	// Conditional GET: If-None-Match takes precedence over
	// If-Modified-Since (RFC 9110 §13.2.2).
	if etag != "" && req.IfNoneMatch != "" {
		if httpmsg.ETagMatch(req.IfNoneMatch, etag) {
			s.notModified(c, pe)
			return
		}
	} else if !req.IfModifiedSince.IsZero() && !lm.IsZero() && pe.ModTime <= req.IfModifiedSince.Unix() {
		s.notModified(c, pe)
		return
	}

	// Single-range requests (RFC 7233) apply to GET only; an If-Range
	// validator mismatch falls back to the full body.
	status, off, length := 200, int64(0), pe.Size
	contentRange := ""
	if req.Range != nil && req.Method == "GET" &&
		(req.IfRange == "" || httpmsg.MatchIfRange(req.IfRange, etag, lm.Unix())) {
		o, n, ok := req.Range.Resolve(pe.Size)
		if !ok {
			s.respondBody(c, httpmsg.ResponseMeta{
				Status:       416,
				ContentRange: fmt.Sprintf("bytes */%d", pe.Size),
			}, httpmsg.ErrorBody(416))
			return
		}
		status, off, length = 206, o, n
		contentRange = fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, pe.Size)
	}
	c.ls.status = status

	// Response header (§5.3), cached against the entity's mtime, keyed by
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
			ContentType:   pe.ContentType,
			ContentLength: length,
			ModTime:       lm,
			Date:          s.cfg.Clock(),
			KeepAlive:     req.KeepAlive,
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
		// The zero-copy transport: one item, the header and then the
		// descriptor's byte window, shipped with sendfile(2) on Linux (the
		// portable pread+writev loop elsewhere). The item holds its own
		// descriptor reference, so path-cache eviction cannot close the
		// file mid-transfer.
		s.commit(c, writeItem{data: hdr, sf: entryRef(pe).Acquire(), sfOff: off, sfLen: length, last: true})
		return
	}
	src := &c.chunkSrc
	src.init(s, pe, hdr, off, length)
	c.ls.src = src
	src.next(s, c)
}

// lastModified is the entity's Last-Modified time: a file's mtime, a
// proxied entry's origin value — or, for a proxied entry whose origin
// sent none, the zero time, so If-Modified-Since yields no 304, the
// header carries no Last-Modified and an If-Range date never matches.
func lastModified(pe cache.PathEntry) time.Time {
	if _, proxied := pe.File.(*proxyHandler); proxied && pe.LastModified == "" {
		return time.Time{}
	}
	return time.Unix(pe.ModTime, 0)
}

// respondFixed sends a response that is one pre-assembled buffer: a
// header, plus any error, 304, 416 or listing body.
func (s *shard) respondFixed(c *conn, data []byte) {
	s.commit(c, writeItem{data: data, last: true, whole: true})
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

// commit hands an item to the connection's goroutine, which owns the
// socket, and settles on the spot what the loop knows of it: its bytes
// are counted (a descriptor window as sendfile's, which the flush
// report corrects), and at the response's last item the counters, the
// access log line, the busy gauge and the walk are settled — nothing
// about the response needs the loop again. What must outlive the write
// — the pins on the item's chunks, a sendfile window's descriptor
// reference — moves to the connection until a released message reports
// the flush; a flush that falls short takes the byte counts back and
// fails the connection there. A run its walk goes on after stays in
// flight until then: the report pulls the next one.
//
// The item travels to the conn goroutine in one reply, with the
// persistence verdict after a last item — except inside a batch with an
// exchange still to run (stageNext), where a whole response that keeps
// the connection and fits under gatherCap is staged on the gather list
// instead: its inline bytes copied out before the next exchange reuses
// the header scratch, its chunk windows out of the run scratch — and
// the loop goes on to the next exchange (runBatch) with no hop at all.
// The reply counts the staged responses ahead of its item; the
// goroutine corks a whole response, flushing first when it would pass
// the cap, and writes any other item at once, so a client that stops
// reading still pins at most the cap plus one response.
//
// An item for a connection that already failed is dropped instead —
// what it carries is released — and the exchange ended with it.
func (s *shard) commit(c *conn, item writeItem) {
	if c.failed || c.writeDone {
		for _, ch := range item.chunks {
			s.view.Release(ch)
		}
		if item.sf != nil {
			item.sf.Release()
		}
		s.dropSource(c)
		s.signalNext(c, false)
		return
	}
	if c.inFlight {
		panic("flash: commit while a run is in flight")
	}
	n := int64(item.wireLen())
	c.ls.bytesSent += n + item.sfLen
	s.stats.BytesSent += n + item.sfLen
	s.stats.BytesCopied += n
	s.stats.BytesSendfile += item.sfLen
	if len(item.chunks) == 0 {
		c.pins = append(c.pins, nil) // item.pins() counts this entry
	}
	c.pins = append(c.pins, item.chunks...)
	if item.sf != nil {
		c.sf = item.sf
	}
	keep := false
	if item.last {
		keep = s.settle(c)
	} else {
		c.inFlight = true
	}
	if item.whole && c.stageNext && keep && c.fits(&item) {
		c.stage(&item)
		c.staged++
		return
	}
	c.reply <- connReply{kind: replyItem, item: item, keep: keep, staged: c.takeStaged()}
}

// takeStaged returns the responses staged since the last reply, for
// the reply about to be sent.
func (c *conn) takeStaged() int32 {
	n := c.staged
	c.staged = 0
	return n
}

// released runs when the conn goroutine reports a flush of committed
// items holding n FIFO entries between them: their pins come off,
// oldest first, and so does a sendfile window's descriptor reference.
// The byte counters take back what the flush did not do: short, the
// committed bytes it left unwritten, and sfShort, the part of a
// descriptor window sendfile did not move (the copy fallback's bytes
// count as copied). A flush that failed (ok false) fails the
// connection, which its goroutine is already leaving. A run in flight
// was in the flush: its walk goes on — or, on a failed connection,
// ends.
func (s *shard) released(c *conn, n int, short, sfShort int64, ok bool) {
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
	if c.sf != nil {
		c.sf.Release()
		c.sf = nil
	}
	s.stats.BytesSent -= short
	s.stats.BytesSendfile -= sfShort
	s.stats.BytesCopied -= short - sfShort
	if !ok {
		s.markFailed(c)
		c.writeDone = true
	}
	if !c.inFlight {
		return
	}
	c.inFlight = false
	if c.failed || c.writeDone {
		s.dropSource(c)
		s.signalNext(c, false)
		return
	}
	c.ls.src.next(s, c)
}

// settle closes the books on a response whose last item is committed,
// ends its walk, and returns the persistence verdict. Persistence is
// decided by the request's (possibly downgraded) keep-alive flag: 4xx
// responses are correctly framed, so the connection survives them — a
// pipelined burst keeps its in-order framing across a mid-burst 404.
func (s *shard) settle(c *conn) bool {
	ls := &c.ls
	s.stats.Responses++
	keep := ls.req != nil && ls.req.KeepAlive && !s.srv.stopping.Load()
	if ls.req != nil && s.cfg.AccessLog != nil {
		s.logAccess(c.remoteAddr(), ls.req, ls.status, ls.bytesSent)
	}
	if !keep {
		c.writeDone = true
	}
	s.dropSource(c)
	s.markIdle(c)
	return keep
}

// dropSource ends the response's chunk walk, if one is installed: a
// finished or failed walk starts no further fill and drops its
// descriptor pin.
func (s *shard) dropSource(c *conn) {
	if cs := c.ls.src; cs != nil {
		c.ls.src = nil
		cs.end(s)
	}
}

// signalNext ends an exchange that has no last item to carry the
// verdict — a failed one, or a handler's: it answers the parked conn
// goroutine and clears the busy gauge. The reply counts the responses a
// batch staged ahead of the exchange, so they leave before a close.
// The send does not block: a reply is already waiting only when the
// connection has failed, and then the goroutine is leaving anyway
// (nothing is staged while a reply waits).
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
// committed, so the only correct signal is a close). With a run in
// flight, its flush report ends the exchange.
func (s *shard) failConn(c *conn) {
	s.markFailed(c)
	s.dropSource(c)
	if !c.inFlight {
		c.writeDone = true
		s.signalNext(c, false)
	}
}

// connEnd runs once the connection goroutine is done with c: the
// response's walk (if one is still installed) is ended so it drops what
// it holds, and so is every pin still with the connection (responses
// it left corked, never received, or flushed last — that flush is
// reported here: short, sfShort and ok are its released figures).
func (s *shard) connEnd(c *conn, short, sfShort int64, ok bool) {
	s.ended++
	s.markIdle(c)
	s.dropSource(c)
	c.writeDone = true
	c.inFlight = false
	s.released(c, len(c.pins)-c.pinHead, short, sfShort, ok)
}

// Header-cache variant slots beside a path's 200: rangeVariantSlot is
// shared by all 206 responses of the path (the entry's Variant field
// names the window), notModifiedSlot holds its 304 (the Variant is the
// entity tag it carries).
const (
	rangeVariantSlot = "range"
	notModifiedSlot  = "304"
)

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
	s.view.GetHeader(pe.Translated, notModifiedSlot, -1)
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

// notModified sends a 304, echoing the entity tag a 200 would carry
// (RFC 7232 §4.1). Like the 200 header, the rendered 304 is cached once
// per entity against its identity and patched to the request's
// persistence mode, making the revalidation path allocation-free on a
// warm cache.
func (s *shard) notModified(c *conn, pe cache.PathEntry) {
	req := c.ls.req
	c.ls.status = 304
	var hdr []byte
	if he, ok := s.view.GetHeader(pe.Translated, notModifiedSlot, pe.ModTime); ok &&
		he.Size == pe.Size && he.Variant == pe.ETag {
		hdr = he.Header
	} else {
		hdr = httpmsg.BuildHeader(httpmsg.ResponseMeta{
			Status:        304,
			Proto:         req.Proto,
			ContentLength: -1,
			Date:          s.cfg.Clock(),
			KeepAlive:     req.KeepAlive,
			ETag:          pe.ETag,
		}, true)
		s.view.PutHeader(pe.Translated, notModifiedSlot, cache.HeaderEntry{
			Header: hdr, Size: pe.Size, ModTime: pe.ModTime, Variant: pe.ETag,
		})
	}
	s.respondFixed(c, headerFor(req, s.fixPersistence(c, hdr, req)))
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
// additional header lines (e.g. the Allow list of a 405). It is framed
// like any other response, so keepAlive alone decides whether the
// connection persists: a shed 503 or an origin's 502 keeps it, and the
// callers that must close (Shutdown, a refused head, a handler panic)
// pass false.
func (s *shard) errorResponseExtra(c *conn, status int, keepAlive bool, extra []string) {
	if c.ls.req == nil {
		c.ls = loopState{req: &httpmsg.Request{Method: "GET", Target: "-", Proto: "HTTP/1.0", Major: 1}}
	}
	if status == 404 {
		s.stats.NotFound++
	}
	c.ls.req.KeepAlive = keepAlive
	s.respondBody(c, httpmsg.ResponseMeta{Status: status, ExtraHeaders: extra}, httpmsg.ErrorBody(status))
}

// respondBody sends a text/html response whose body is already in
// memory — an error page, a 416, a generated directory listing: meta's
// status and extra fields, framed for the request, behind a freshly
// built header.
func (s *shard) respondBody(c *conn, meta httpmsg.ResponseMeta, body []byte) {
	req := c.ls.req
	c.ls.status = meta.Status
	meta.Proto = responseProto(req)
	meta.ContentType = "text/html"
	meta.ContentLength = int64(len(body))
	meta.Date = s.cfg.Clock()
	meta.KeepAlive = req.KeepAlive
	hdr := headerFor(req, httpmsg.BuildHeader(meta, true))
	if req.Method == "HEAD" {
		body = nil // a GET's length, none of its bytes (RFC 9110 §9.3.2)
	}
	s.respondFixed(c, append(hdr, body...))
}
