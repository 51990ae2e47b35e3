package flash

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/httpmsg"
	"repro/internal/upstream"
)

// The caching reverse-proxy tier: requests under a mounted prefix are
// answered from the same three caches the static path uses — the
// pathname cache holds origin metadata (validators, freshness), the
// header cache the rendered response head, the chunk tier the body —
// with the origin fetch taking the place of the disk. The AMPED
// contract is unchanged: the event loop never blocks on the network;
// origin round trips run as jobProxy closures on the owner shard's
// helper pool, and a cacheable body streams chunk-by-chunk into a
// cache.Fill so every coalesced client serves while the fill runs.
//
// One shard owns each proxied entry (cache.OwnerShard over the cache
// key), and ALL metadata fetches for that entry funnel through its
// loop (ownerEnsure): N concurrent cold requests — across shards —
// cost exactly one origin round trip. Responses the freshness rules
// refuse to store (no-store, chunked, non-200) fall through to a
// pass-through relay on the dynamic-handler pipeline.

// proxyKeyScheme builds the pathname-cache key for a proxied target.
// The NUL prefix keeps proxy entries disjoint from filesystem entries
// (parsed request paths can never contain NUL), and the NUL separator
// keeps distinct mounts disjoint from each other.
func proxyKeyPrefix(prefix string) string { return "\x00proxy:" + prefix + "\x00" }

// proxyHandler is one mounted upstream pool. It doubles as the
// pathname-cache entry's File handle for proxied entries (so the chunk
// walk can find its way back to the pool) and as the pass-through
// Handler for requests the cache cannot serve.
type proxyHandler struct {
	pool      *upstream.Pool
	prefix    string
	keyPrefix string
	host      string // Host header sent on origin fetches
}

func (ph *proxyHandler) cacheKey(target string) string { return ph.keyPrefix + target }
func (ph *proxyHandler) targetOf(key string) string    { return strings.TrimPrefix(key, ph.keyPrefix) }

// proxyMount records one HandleProxy registration for ProxyStats.
type proxyMount struct {
	prefix string
	pool   *upstream.Pool
}

// HandleProxy mounts pool as a caching reverse proxy under prefix
// (longest prefix wins against other routes, exactly as for handlers).
// GET and HEAD requests without bodies flow through the cache; every
// other shape is relayed pass-through. Must be called before Serve.
// The caller keeps ownership of pool and closes it after the server.
func (s *Server) HandleProxy(prefix string, pool *upstream.Pool) {
	ph := &proxyHandler{
		pool:      pool,
		prefix:    prefix,
		keyPrefix: proxyKeyPrefix(prefix),
		host:      pool.Hostname(),
	}
	s.HandleRoute(Route{Prefix: prefix, Handler: ph})
	s.proxyMounts = append(s.proxyMounts, proxyMount{prefix: prefix, pool: pool})
}

// ProxyPoolStats is one mounted pool's snapshot for status endpoints.
type ProxyPoolStats struct {
	Prefix string             `json:"prefix"`
	Pool   upstream.PoolStats `json:"pool"`
}

// ProxyStats snapshots every mounted proxy pool's backend health.
func (s *Server) ProxyStats() []ProxyPoolStats {
	out := make([]ProxyPoolStats, 0, len(s.proxyMounts))
	for _, m := range s.proxyMounts {
		out = append(out, ProxyPoolStats{Prefix: m.prefix, Pool: m.pool.Stats()})
	}
	return out
}

// --- loop-side request flow ---

// proxyVerdict is the owner shard's answer to one metadata fetch.
type proxyVerdict struct {
	kind   int
	pe     cache.PathEntry    // verdictEntry: the adopted (fresh) entry
	status int                // verdictError: 502 or 504
	resp   *upstream.Response // verdictStream: live origin body for one waiter
}

const (
	verdictEntry = iota
	verdictError
	verdictStream  // uncacheable: first waiter adopts the live response
	verdictRefetch // uncacheable: remaining waiters re-fetch pass-through
)

// proxyWaiter delivers a verdict back to one waiting request (it posts
// to the waiter's own shard loop).
type proxyWaiter func(proxyVerdict)

// handleProxy serves one GET/HEAD through the cache: a fresh entry
// answers immediately from the shard's own caches (zero cross-shard
// traffic — the warm path), anything else funnels through the owner
// shard. Also the restart re-entry when a chunk walk loses its fill.
func (s *shard) handleProxy(c *conn, req *httpmsg.Request, ph *proxyHandler) {
	c.ls = loopState{req: req, status: 200}
	key := ph.cacheKey(req.Target)
	if pe, ok := s.view.GetPath(key); ok {
		if pe.Expires > s.clock.Load() {
			s.stats.ProxyHits++
			s.serveProxyEntry(c, ph, pe)
			return
		}
		if s.overloaded() && s.cfg.StaleIfError >= 0 && pe.StaleUntil > s.clock.Load() {
			// Degrade under pressure: the entry is expired but inside
			// its stale window, and the origin leg would join a helper
			// backlog that has already lost the latency battle. Serve
			// the stale copy; a calmer moment revalidates.
			s.stats.ShedRevalidates++
			s.serveProxyEntry(c, ph, pe)
			return
		}
	} else if s.overloaded() {
		// A cold key needs an origin round trip through the backlog:
		// shed fast instead.
		s.shedRequest(c, req.KeepAlive)
		return
	}
	s.proxyEnsure(c, req, ph, key)
}

// proxyEnsure routes a miss (or stale hit) to the entry's owner shard
// and parks the request until the verdict comes back.
func (s *shard) proxyEnsure(c *conn, req *httpmsg.Request, ph *proxyHandler, key string) {
	owner := s.srv.shards[cache.OwnerShard(key, len(s.srv.shards))]
	done := proxyWaiter(func(v proxyVerdict) {
		if !s.post(func() { s.proxyResolve(c, req, ph, key, v) }) && v.resp != nil {
			v.resp.Abandon()
		}
	})
	if owner == s {
		s.ownerEnsure(ph, key, done)
		return
	}
	if !owner.post(func() { owner.ownerEnsure(ph, key, done) }) {
		s.errorResponse(c, 503, false)
	}
}

// ownerEnsure runs on the owner shard's loop: a concurrently resolved
// entry answers at once, an in-flight fetch adds a waiter, and a cold
// key dispatches exactly one origin fetch — the cross-shard analogue
// of the chunk tier's single-flight fills, applied to metadata.
func (s *shard) ownerEnsure(ph *proxyHandler, key string, done proxyWaiter) {
	old, haveOld := s.view.GetPath(key)
	if haveOld && old.Expires > s.clock.Load() {
		done(proxyVerdict{kind: verdictEntry, pe: old})
		return
	}
	if waiters, ok := s.proxyPending[key]; ok {
		s.proxyPending[key] = append(waiters, done)
		return
	}
	if s.proxyPending == nil {
		s.proxyPending = make(map[string][]proxyWaiter)
	}
	s.proxyPending[key] = []proxyWaiter{done}
	s.helpers.submit(helperJob{kind: jobProxy, fn: func() {
		ph.fetch(s, key, old, haveOld)
	}})
}

// resolveProxy delivers one verdict to every waiter (owner loop). A
// live uncacheable response can only be adopted once: the first waiter
// gets it, the rest re-fetch on their own pass-through relays.
func (s *shard) resolveProxy(key string, v proxyVerdict) {
	waiters := s.proxyPending[key]
	delete(s.proxyPending, key)
	if len(waiters) == 0 && v.resp != nil {
		v.resp.Abandon()
		return
	}
	for i, done := range waiters {
		if v.kind == verdictStream && i > 0 {
			done(proxyVerdict{kind: verdictRefetch})
			continue
		}
		done(v)
	}
}

// proxyResolve resumes one parked request on its own shard once the
// owner's verdict arrives. The connection may have died while parked;
// a held live response must then be dropped, not leaked.
func (s *shard) proxyResolve(c *conn, req *httpmsg.Request, ph *proxyHandler, key string, v proxyVerdict) {
	if c.failed || c.writeDone || c.ls.src != nil || c.ls.req != req {
		if v.resp != nil {
			v.resp.Abandon()
		}
		return
	}
	switch v.kind {
	case verdictEntry:
		s.putEntry(key, v.pe) // adopt into this shard's path cache
		s.serveProxyEntry(c, ph, v.pe)
	case verdictError:
		s.stats.ProxyErrors++
		s.errorResponse(c, v.status, req.KeepAlive)
	case verdictStream:
		s.stats.ProxyPassThrough++
		s.startHandler(c, req, &responseRelay{resp: v.resp}, nil)
	default: // verdictRefetch
		s.stats.ProxyPassThrough++
		s.startHandler(c, req, ph, nil)
	}
}

// serveProxyEntry answers from a fresh cached entry: client-side
// conditionals first (a 304 here costs no origin traffic at all),
// then the header cache, then the chunk walk — the same §5 machinery
// as a static file, with the entry's origin metadata in place of the
// stat results. Range requests are not sliced on proxied entries; they
// get the full 200.
func (s *shard) serveProxyEntry(c *conn, ph *proxyHandler, pe cache.PathEntry) {
	req := c.ls.req
	etag := pe.ETag
	if etag != "" && req.IfNoneMatch != "" {
		if httpmsg.ETagMatch(req.IfNoneMatch, etag) {
			s.notModified(c, pe, etag)
			return
		}
	} else if !req.IfModifiedSince.IsZero() && pe.LastModified != "" &&
		pe.ModTime <= req.IfModifiedSince.Unix() {
		s.notModified(c, pe, etag)
		return
	}

	var hdr []byte
	if he, ok := s.view.GetHeader(pe.Translated, "", pe.ModTime); ok &&
		he.Size == pe.Size && he.Variant == "" {
		hdr = he.Header
	} else {
		meta := httpmsg.ResponseMeta{
			Status:        200,
			Proto:         req.Proto,
			ContentType:   pe.ContentType,
			ContentLength: pe.Size,
			Date:          s.cfg.Clock(),
			KeepAlive:     req.KeepAlive,
			ServerName:    s.cfg.ServerName,
			ETag:          etag,
		}
		if pe.LastModified != "" {
			meta.ModTime = time.Unix(pe.ModTime, 0)
		}
		hdr = httpmsg.BuildHeader(meta, !s.cfg.DisableHeaderAlign)
		s.view.PutHeader(pe.Translated, "", cache.HeaderEntry{
			Header: hdr, Size: pe.Size, ModTime: pe.ModTime, Variant: "",
		})
	}
	hdr = headerFor(req, s.fixPersistence(c, hdr, req))

	if req.Method == "HEAD" || pe.Size == 0 {
		s.respondFixed(c, hdr)
		return
	}
	src := &c.chunkSrc
	src.init(s, pe, hdr, 0, pe.Size)
	src.proxy = ph // after init: init wholesale-resets the source
	s.respond(c, src)
}

// adoptProxyEntry installs a freshly fetched identity on the owner
// shard. A changed identity retires every derived cache entry of the
// old one first — headers by their mtime mismatch, chunks and any
// stale in-flight fill through InvalidateFile — exactly what
// invalidateFile does for files, minus the path-entry identity check
// (proxy entries share one File handle, so that check cannot tell old
// from new).
func (s *shard) adoptProxyEntry(key string, pe, old cache.PathEntry, haveOld bool) {
	if haveOld && (old.ModTime != pe.ModTime || old.Size != pe.Size) {
		s.view.GetHeader(key, "", -1)
		for _, slot := range nmSlots {
			s.view.GetHeader(key, slot, -1)
		}
		s.view.InvalidateFile(key, old.ModTime, s.store.NumChunks(old.Size))
	}
	s.putEntry(key, pe)
}

// --- helper-side origin fetches (jobProxy closures) ---

// proxyStaleHoldoff is how long a stale-if-error serve refreshes the
// entry's Expires: while the origin stays dead, each key retries it at
// most about once a second instead of on every request, and the
// requests in between are plain warm hits on the stale entry.
const proxyStaleHoldoff = int64(time.Second)

// staleWindow resolves the RFC 5861 stale-if-error window for a fetch:
// the origin's explicit directive wins (including an explicit 0,
// which forbids stale serving), else the server-wide Config.
// StaleIfError default; a negative config disables the feature.
func proxyStaleWindow(cfg *Config, fr upstream.Freshness) int64 {
	if cfg.StaleIfError < 0 {
		return 0
	}
	if fr.StaleIfErrorSet {
		return int64(fr.StaleIfError)
	}
	return int64(cfg.StaleIfError)
}

// staleFallback decides whether an origin failure may be masked by the
// stale cached entry (RFC 5861 stale-if-error): the entry must exist,
// stale serving must be enabled, and now must fall inside the entry's
// stale window. The returned copy carries a short Expires holdoff so a
// dead origin is retried about once a second per key, never per
// request.
func staleFallback(cfg *Config, old cache.PathEntry, haveOld bool, nowNano int64) (cache.PathEntry, bool) {
	if !haveOld || cfg.StaleIfError < 0 || old.StaleUntil <= nowNano {
		return cache.PathEntry{}, false
	}
	pe := old
	pe.CheckedAt = nowNano
	exp := nowNano + proxyStaleHoldoff
	if exp > old.StaleUntil {
		exp = old.StaleUntil
	}
	pe.Expires = exp
	return pe, true
}

// resolveStale delivers a stale-if-error verdict: the stale entry is
// re-adopted (with its holdoff Expires) and every coalesced waiter
// serves it, byte-identical to the fresh serve it replaces.
func (ph *proxyHandler) resolveStale(owner *shard, key string, pe cache.PathEntry) {
	owner.post(func() {
		owner.stats.ProxyStale++
		owner.putEntry(key, pe)
		owner.resolveProxy(key, proxyVerdict{kind: verdictEntry, pe: pe})
	})
}

// fetch is the single-flight metadata fetch for one key: a GET
// carrying the stale entry's validators, run on the owner shard's
// helper pool. A 304 refreshes the stored entry without moving the
// body; a storable 200 adopts a new entry and streams its body into a
// fill (so the waiters serve while it downloads); everything else
// resolves as an error or a pass-through stream.
func (ph *proxyHandler) fetch(owner *shard, key string, old cache.PathEntry, haveOld bool) {
	ureq := upstream.Request{Method: "GET", Target: ph.targetOf(key), Host: ph.host}
	if haveOld {
		if old.ETag != "" {
			ureq.Header = append(ureq.Header, [2]string{"If-None-Match", old.ETag})
		}
		if old.LastModified != "" {
			ureq.Header = append(ureq.Header, [2]string{"If-Modified-Since", old.LastModified})
		}
	}
	resp, err := ph.pool.RoundTrip(&ureq)
	if err != nil {
		// Origin leg failed (dial error, breaker open, timeout): serve
		// the stale copy when RFC 5861 allows, else surface the error.
		if pe, ok := staleFallback(owner.cfg, old, haveOld, time.Now().UnixNano()); ok {
			ph.resolveStale(owner, key, pe)
			return
		}
		status := 502
		if upstream.IsTimeout(err) {
			status = 504
		}
		owner.post(func() {
			owner.resolveProxy(key, proxyVerdict{kind: verdictError, status: status})
		})
		return
	}
	if resp.Status >= 500 {
		// The origin answered, but with a server failure — the other
		// face of "the origin leg failed" for stale-if-error purposes.
		if pe, ok := staleFallback(owner.cfg, old, haveOld, time.Now().UnixNano()); ok {
			resp.Close() // drain politely; the conn goes back idle
			ph.resolveStale(owner, key, pe)
			return
		}
	}

	now := time.Now()
	nowNano := now.UnixNano()
	fr := upstream.EvalFreshness(resp.Head, now)
	ttl := int64(fr.TTL)

	if resp.Status == 304 && haveOld {
		// Revalidated: same body, refreshed lifetime. A bare 304 (no
		// caching headers) re-derives the heuristic lifetime from the
		// stored validator, since its age has only grown.
		if ttl == 0 && old.LastModified != "" {
			if t, err := httpmsg.ParseHTTPTime(old.LastModified); err == nil {
				ttl = int64(upstream.HeuristicTTL(t, now))
			}
		}
		resp.Close()
		pe := old
		pe.CheckedAt = nowNano
		pe.Expires = nowNano + ttl
		// Refresh the stale window too: the 304's own directive wins;
		// a bare 304 keeps the length the stored entry had (the origin
		// said "unchanged", and that includes its caching policy).
		w := proxyStaleWindow(owner.cfg, fr)
		if !fr.StaleIfErrorSet && old.StaleUntil > old.Expires {
			w = old.StaleUntil - old.Expires
		}
		pe.StaleUntil = 0
		if w > 0 {
			pe.StaleUntil = pe.Expires + w
		}
		owner.post(func() {
			owner.stats.ProxyRevalidated++
			owner.putEntry(key, pe)
			owner.resolveProxy(key, proxyVerdict{kind: verdictEntry, pe: pe})
		})
		return
	}

	if resp.Status == 200 && fr.Storable && resp.ContentLength >= 0 {
		// The origin header views die with resp.Close; everything the
		// entry keeps is copied here, on the helper.
		etag, _ := resp.Head.Header("etag")
		ct, _ := resp.Head.Header("content-type")
		lm, _ := resp.Head.Header("last-modified")
		etag, ct, lm = strings.Clone(etag), strings.Clone(ct), strings.Clone(lm)
		modUnix := now.Unix()
		if lm != "" {
			if t, err := httpmsg.ParseHTTPTime(lm); err == nil {
				modUnix = t.Unix()
			}
		}
		pe := cache.PathEntry{
			Translated:   key,
			File:         ph,
			Size:         resp.ContentLength,
			ModTime:      modUnix,
			CheckedAt:    nowNano,
			ETag:         etag,
			Expires:      nowNano + ttl,
			ContentType:  ct,
			LastModified: lm,
		}
		if w := proxyStaleWindow(owner.cfg, fr); w > 0 {
			pe.StaleUntil = pe.Expires + w
		}
		if pe.Size == 0 {
			resp.Close()
			owner.post(func() {
				owner.stats.ProxyFills++
				owner.adoptProxyEntry(key, pe, old, haveOld)
				owner.resolveProxy(key, proxyVerdict{kind: verdictEntry, pe: pe})
			})
			return
		}
		// Adopt the entry and register the fill on the owner loop, then
		// stream the body into it right here: the metadata fetch IS the
		// body fetch, so a cold storm costs one origin round trip.
		fillCh := make(chan *cache.Fill, 1)
		if !owner.post(func() {
			owner.stats.ProxyFills++
			owner.adoptProxyEntry(key, pe, old, haveOld)
			f, started := owner.view.JoinFill(key, pe.Size, pe.ModTime)
			if !started {
				// A conflicting fill is in flight (stale identity, about
				// to fail) or someone else is already producing: this
				// response has no fill to feed.
				f = nil
			}
			fillCh <- f
			owner.resolveProxy(key, proxyVerdict{kind: verdictEntry, pe: pe})
		}) {
			resp.Abandon() // shutdown: nobody left to take the body
			return
		}
		if f := <-fillCh; f != nil {
			streamIntoFill(resp, f)
		} else {
			resp.Close()
		}
		return
	}

	// Uncacheable: no-store/private/no Content-Length/non-200. The
	// first waiter adopts this live response; the rest relay their own.
	if !owner.post(func() {
		owner.resolveProxy(key, proxyVerdict{kind: verdictStream, resp: resp})
	}) {
		resp.Abandon()
	}
}

// refill re-fetches a cached entry's body for a chunk walk whose
// chunks were evicted (the fill producer for proxy entries, as fillJob
// is for files). The full GET is unconditional — a fill needs bytes,
// not a 304 — and any identity drift fails the fill ErrFillStale so
// the walker restarts against a freshly fetched entry.
func (ph *proxyHandler) refill(f *cache.Fill) {
	target := ph.targetOf(f.Path())
	resp, err := ph.pool.RoundTrip(&upstream.Request{Method: "GET", Target: target, Host: ph.host})
	if err != nil {
		f.Fail(err)
		return
	}
	if resp.Status != 200 || resp.ContentLength != f.Size() {
		resp.Abandon()
		f.Fail(cache.ErrFillStale)
		return
	}
	if lm, ok := resp.Head.Header("last-modified"); ok {
		if t, err := httpmsg.ParseHTTPTime(lm); err == nil && t.Unix() != f.ModTime() {
			resp.Abandon()
			f.Fail(cache.ErrFillStale)
			return
		}
	}
	streamIntoFill(resp, f)
}

// startProxyRefill hands a freshly registered fill for a proxied entry
// to its producer: one jobProxy on the owner shard's helpers (the
// proxy analogue of startFill's jobFill).
func (s *shard) startProxyRefill(ph *proxyHandler, f *cache.Fill) {
	owner := s.srv.shards[cache.OwnerShard(f.Path(), len(s.srv.shards))]
	owner.helpers.submit(helperJob{kind: jobProxy, fn: func() { ph.refill(f) }})
}

// streamIntoFill publishes an origin body into a fill, one chunk at a
// time — parked subscribers stream each chunk the moment it lands,
// before the origin finishes sending. Publish also returns false after
// the FINAL chunk (the fill just completed), so only a mid-body false
// means the fill was doomed.
func streamIntoFill(resp *upstream.Response, f *cache.Fill) {
	n := f.NumChunks()
	for i := 0; i < n; i++ {
		_, sz := f.ChunkRange(i)
		buf := make([]byte, sz)
		if _, err := io.ReadFull(resp, buf); err != nil {
			f.Fail(err)
			resp.Abandon()
			return
		}
		if !f.Publish(buf) && i < n-1 {
			// Doomed mid-stream: the rest of the body is useless; drop
			// the origin connection rather than drain it.
			resp.Abandon()
			return
		}
	}
	resp.Close() // drained cleanly: the origin connection goes back idle
}

// --- pass-through relays (dynamic-handler pipeline) ---

// hop-by-hop fields are connection-scoped and must not cross the
// proxy (RFC 7230 §6.1); Host, Expect, and Content-Length are rebuilt
// by the origin leg itself. Keys are lower-cased as the request parser
// and response EachHeader deliver them.
var hopByHopReq = map[string]bool{
	"connection": true, "keep-alive": true, "te": true,
	"transfer-encoding": true, "trailer": true, "upgrade": true,
	"proxy-authorization": true, "proxy-connection": true,
	"host": true, "expect": true, "content-length": true,
}

var hopByHopResp = map[string]bool{
	"connection": true, "keep-alive": true, "te": true,
	"transfer-encoding": true, "trailer": true, "upgrade": true,
	"proxy-authenticate": true, "proxy-connection": true,
}

// ServeFlash is the pass-through relay: the route dispatch lands here
// for request shapes the cache cannot serve (non-GET/HEAD, request
// bodies), and proxyResolve re-dispatches uncacheable misses here.
// It runs on a handler goroutine, so the blocking round trip is fine.
func (ph *proxyHandler) ServeFlash(w ResponseWriter, r *Request) {
	ureq := upstream.Request{Method: r.Method, Target: r.Target, Host: ph.host}
	for k, v := range r.Headers {
		if hopByHopReq[k] {
			continue
		}
		ureq.Header = append(ureq.Header, [2]string{k, v})
	}
	if r.ContentLength != 0 {
		body, cl := r.Body, r.ContentLength
		if cl < 0 {
			// Chunked client body: the origin leg speaks identity
			// framing only, so learn the length first (bounded by the
			// route's body cap, which the reader enforces).
			data, err := io.ReadAll(body)
			if err != nil {
				proxyError(w, 502)
				return
			}
			body, cl = bytes.NewReader(data), int64(len(data))
		}
		ureq.Body, ureq.ContentLength = body, cl
	}
	resp, err := ph.pool.RoundTrip(&ureq)
	if err != nil {
		status := 502
		if upstream.IsTimeout(err) {
			status = 504
		}
		proxyError(w, status)
		return
	}
	relayResponse(w, resp)
}

// responseRelay pumps a live origin response that the owner's metadata
// fetch already holds (the first waiter of an uncacheable miss).
type responseRelay struct {
	resp *upstream.Response
}

func (rr *responseRelay) ServeFlash(w ResponseWriter, r *Request) {
	relayResponse(w, rr.resp)
}

// relayResponse copies one origin response to the client through the
// dynamic pipeline: origin headers minus hop-by-hop (Content-Length,
// when present, selects identity framing; absent, the writer chunks),
// then the body one pipe buffer at a time with per-buffer flushes. A
// mid-body origin failure cuts the client connection — the committed
// framing cannot be completed honestly.
func relayResponse(w ResponseWriter, resp *upstream.Response) {
	h := w.Header()
	resp.Head.EachHeader(func(k, v string) {
		if !hopByHopResp[k] {
			h.Add(k, v)
		}
	})
	w.WriteHeader(resp.Status)
	buf := make([]byte, dynBufSize)
	for {
		n, err := resp.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				resp.Abandon()
				return
			}
			w.Flush()
		}
		if err == io.EOF {
			resp.Close()
			return
		}
		if err != nil {
			resp.Abandon()
			if rw, ok := w.(*responseWriter); ok {
				rw.fail()
			}
			return
		}
	}
}

// proxyError answers a pass-through failure with the standard error
// body (the loop-side misses use errorResponse; this is the handler-
// goroutine equivalent).
func proxyError(w ResponseWriter, status int) {
	if rw, ok := w.(*responseWriter); ok {
		sh := rw.sh
		sh.post(func() { sh.stats.ProxyErrors++ })
	}
	body := httpmsg.ErrorBody(status)
	w.Header().Set("Content-Type", "text/html")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}
