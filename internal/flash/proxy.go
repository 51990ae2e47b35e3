package flash

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/httpmsg"
	"repro/internal/upstream"
)

// The caching reverse-proxy tier: requests under a mounted prefix are
// answered from the same caches, by the same responder (afterTranslate),
// as static files — the key's entry holds origin metadata (validators,
// freshness), the header cache the rendered response heads, the chunk
// tier the body — with the origin exchange taking the place of the disk. The AMPED contract is
// unchanged: the event loop never blocks on the network.
//
// Each proxied key has one record, in the chunk-tier segment that owns
// its chunks: its entry and its single-flight cache.Fill, read and
// joined there by every loop under the segment lock. A request that
// finds no fresh entry joins the key's fill; the fill's producer — a
// jobFill whose producer is the mount, not the disk — runs one origin
// exchange, announces the entry it yields and streams the body into the
// fill, so N concurrent cold requests on any loops cost one round trip
// and serve while the body arrives. Responses the freshness rules
// refuse to store (no-store, chunked, non-200) fail the fill with the
// live response: one waiter relays it, the others relay their own.

// proxyKeyPrefix builds the cache-key prefix for a proxied target.
// The NUL prefix keeps proxy entries disjoint from filesystem entries
// (parsed request paths can never contain NUL), and the NUL separator
// keeps distinct mounts disjoint from each other.
func proxyKeyPrefix(prefix string) string { return "\x00proxy:" + prefix + "\x00" }

// proxyHandler is one mounted upstream pool. It doubles as the File
// handle of proxied entries (so a chunk walk's fill finds its way back
// to the pool) and as the pass-through Handler for requests the cache
// cannot serve.
type proxyHandler struct {
	pool      *upstream.Pool
	prefix    string
	keyPrefix string
	host      string // Host header sent on origin fetches
}

func (ph *proxyHandler) cacheKey(target string) string { return ph.keyPrefix + target }
func (ph *proxyHandler) targetOf(key string) string    { return strings.TrimPrefix(key, ph.keyPrefix) }

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
	s.proxyMounts = append(s.proxyMounts, ph)
}

// ProxyPoolStats is one mounted pool's snapshot for status endpoints.
type ProxyPoolStats struct {
	Prefix string             `json:"prefix"`
	Pool   upstream.PoolStats `json:"pool"`
}

// ProxyStats snapshots every mounted proxy pool's backend health.
func (s *Server) ProxyStats() []ProxyPoolStats {
	out := make([]ProxyPoolStats, 0, len(s.proxyMounts))
	for _, ph := range s.proxyMounts {
		out = append(out, ProxyPoolStats{Prefix: ph.prefix, Pool: ph.pool.Stats()})
	}
	return out
}

// --- loop-side request flow ---

// liveResponse fails a proxied key's fill whose origin response may
// not be stored. The response can be relayed once: the first waiting
// request to take it relays it (or abandons it, if its connection has
// died), and every other relays a fetch of its own.
type liveResponse struct {
	resp  *upstream.Response
	taken atomic.Bool
}

func (lr *liveResponse) Error() string { return "flash: origin response is not cacheable" }

func (lr *liveResponse) take() *upstream.Response {
	if lr.taken.CompareAndSwap(false, true) {
		return lr.resp
	}
	return nil
}

// handleProxy serves one GET/HEAD through the cache: a fresh entry
// answers at once from the key's segment (the warm path), anything else
// joins the key's fill. Also the restart re-entry when a chunk walk
// loses its fill.
func (s *shard) handleProxy(c *conn, req *httpmsg.Request, ph *proxyHandler) {
	c.ls = loopState{req: req, status: 200}
	key := ph.cacheKey(req.Target)
	if pe, ok := s.view.Entry(key); ok {
		if pe.Expires > s.clock.Load() {
			s.stats.ProxyHits++
			s.afterTranslate(c, pe)
			return
		}
		if s.overloaded() && s.cfg.StaleIfError >= 0 && pe.StaleUntil > s.clock.Load() {
			// Degrade under pressure: the entry is expired but inside
			// its stale window, and the origin leg would join a helper
			// backlog that has already lost the latency battle. Serve
			// the stale copy; a calmer moment revalidates.
			s.stats.ShedRevalidates++
			s.afterTranslate(c, pe)
			return
		}
	} else if s.overloaded() {
		// A cold key needs an origin round trip through the backlog:
		// shed fast instead.
		s.shedRequest(c, req.KeepAlive)
		return
	}
	s.joinProxyFill(c, req, ph, key)
}

// joinProxyFill parks a request that found no fresh entry on its key's
// fill until the fill announces the entry, registering the fill and
// starting its producer when none is in flight. An entry another
// request stored since the first look answers at once.
func (s *shard) joinProxyFill(c *conn, req *httpmsg.Request, ph *proxyHandler, key string) {
	pe, f, started := s.view.JoinEntry(key, s.clock.Load())
	if f == nil {
		s.afterTranslate(c, pe)
		return
	}
	pe, pending, err := f.Entry(func() {
		// The announce or the failure: resume on this loop, which
		// outlives every producer (Close stops the helpers first). If the
		// connection died meanwhile, a live response it takes is dropped.
		s.post(func() {
			pe, _, err := f.Entry(nil)
			if c.failed || c.writeDone || c.ls.src != nil || c.ls.req != req {
				if lr, ok := err.(*liveResponse); ok && lr.take() != nil {
					lr.resp.Abandon()
				}
				return
			}
			s.proxyAnswer(c, req, ph, pe, err)
		})
	})
	if started {
		// Parked before the producer runs, as a walk is (chunkSource.miss).
		s.startFill(f, cache.PathEntry{Translated: key, File: ph})
	}
	if !pending {
		s.proxyAnswer(c, req, ph, pe, err)
	}
}

// proxyAnswer answers a request from its key's fill: the entry it
// announced, or how it failed.
func (s *shard) proxyAnswer(c *conn, req *httpmsg.Request, ph *proxyHandler, pe cache.PathEntry, err error) {
	lr, live := err.(*liveResponse)
	switch {
	case err == nil:
		s.afterTranslate(c, pe)
	case live:
		s.stats.ProxyPassThrough++
		if resp := lr.take(); resp != nil {
			s.startHandler(c, req, HandlerFunc(func(w ResponseWriter, _ *Request) { relayResponse(w, resp) }), nil)
			return
		}
		s.startHandler(c, req, ph, nil)
	case errors.Is(err, cache.ErrFillStale):
		// The fill went stale before it announced (a walk's refill met
		// a changed origin): start over against the key's record.
		s.handleProxy(c, req, ph)
	default:
		// The origin leg failed, with no stale copy to fall back on.
		status := 502
		if upstream.IsTimeout(err) {
			status = 504
		}
		s.stats.ProxyErrors++
		s.errorResponse(c, status, req.KeepAlive)
	}
}

// --- the fill's producer: one origin exchange on a helper ---

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

// produce is the producer of every fill of a proxied key: one origin
// exchange on a helper. A fill registered without an identity
// revalidates the key's entry when it has one (If-None-Match /
// If-Modified-Since), so a 304 refreshes the entry without moving the
// body; a fill a walk registered under the entry's identity (its chunks
// were evicted) needs bytes, so its GET is unconditional, and a body of
// another length or Last-Modified fails it ErrFillStale, restarting the
// walk. A storable 200 announces its entry and streams into the fill; a
// 304, a stale-if-error serve and an empty body announce and finish;
// an origin failure fails the fill with the exchange's error, and an
// uncacheable response with the live response.
func (ph *proxyHandler) produce(p *helperPool, f *cache.Fill) {
	cfg := p.sh.cfg
	refill := f.Size() >= 0
	old, haveOld := f.Prior()
	haveOld = haveOld && !refill // a refill needs the bytes, never a 304
	ureq := upstream.Request{Method: "GET", Target: ph.targetOf(f.Path()), Host: ph.host}
	if haveOld {
		if old.ETag != "" {
			ureq.Header = append(ureq.Header, [2]string{"If-None-Match", old.ETag})
		}
		if old.LastModified != "" {
			ureq.Header = append(ureq.Header, [2]string{"If-Modified-Since", old.LastModified})
		}
	}
	resp, err := ph.pool.RoundTrip(&ureq)
	if err != nil || resp.Status >= 500 {
		// The origin leg failed (dial error, breaker open, timeout), or
		// the origin answered with a server failure: serve the stale copy
		// when RFC 5861 allows, else surface a leg failure as an error.
		if pe, ok := staleFallback(cfg, old, haveOld, time.Now().UnixNano()); ok {
			if resp != nil {
				resp.Close() // drain politely; the conn goes back idle
			}
			p.proxyStale.Add(1)
			f.Announce(pe, false)
			return
		}
		if err != nil {
			f.Fail(err)
			return
		}
	}

	now := time.Now()
	nowNano := now.UnixNano()
	fr := upstream.EvalFreshness(resp.Head, now)
	ttl := int64(fr.TTL)

	switch {
	case resp.Status == 304 && haveOld:
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
		w := proxyStaleWindow(cfg, fr)
		if !fr.StaleIfErrorSet && old.StaleUntil > old.Expires {
			w = old.StaleUntil - old.Expires
		}
		pe.StaleUntil = 0
		if w > 0 {
			pe.StaleUntil = pe.Expires + w
		}
		p.proxyRevalidated.Add(1)
		f.Announce(pe, false)

	case resp.Status == 200 && fr.Storable && resp.ContentLength >= 0:
		// The origin header views die with resp.Close; everything the
		// entry keeps is copied here, on the helper.
		etag, _ := resp.Head.Header("etag")
		ct, _ := resp.Head.Header("content-type")
		lm, _ := resp.Head.Header("last-modified")
		etag, ct, lm = strings.Clone(etag), strings.Clone(ct), strings.Clone(lm)
		modUnix := now.Unix()
		if refill {
			modUnix = f.ModTime() // without a Last-Modified, only the length can differ
		}
		if lm != "" {
			if t, err := httpmsg.ParseHTTPTime(lm); err == nil {
				modUnix = t.Unix()
			}
		}
		pe := cache.PathEntry{
			Translated:   f.Path(),
			File:         ph,
			Size:         resp.ContentLength,
			ModTime:      modUnix,
			CheckedAt:    nowNano,
			ETag:         etag,
			Expires:      nowNano + ttl,
			ContentType:  ct,
			LastModified: lm,
		}
		if w := proxyStaleWindow(cfg, fr); w > 0 {
			pe.StaleUntil = pe.Expires + w
		}
		if !f.Announce(pe, pe.Size > 0) {
			resp.Abandon() // a refill's origin changed: the walk restarts
			return
		}
		if !refill {
			p.proxyFills.Add(1)
		}
		if pe.Size == 0 {
			resp.Close()
			return
		}
		streamIntoFill(resp, f)

	case refill:
		resp.Abandon()
		f.Fail(cache.ErrFillStale)

	default:
		// Uncacheable: no-store/private/no Content-Length/non-200.
		f.Fail(&liveResponse{resp: resp})
	}
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
// bodies), and proxyAnswer re-dispatches uncacheable misses here.
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
