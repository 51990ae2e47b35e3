package flash

import (
	"errors"
	"io"
	"log"
	"net/textproto"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpmsg"
)

// Handler is the v2 dynamic-content interface: the full-peer analogue
// of the paper's §5.6 CGI processes, which receive the whole request
// and emit arbitrary headers and bodies back over the pipe. ServeFlash
// runs on its own goroutine — the stand-in for a persistent CGI-bin
// process — so it may block on disk, the network, the request body, or
// long computations without stalling the shard's event loop; every
// write it makes flows through the loop one buffer at a time with
// per-buffer acknowledgement (the pipe acting as flow control).
//
// The ResponseWriter and the Request (including its Body) are only
// valid until ServeFlash returns.
type Handler interface {
	ServeFlash(w ResponseWriter, r *Request)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(w ResponseWriter, r *Request)

// ServeFlash implements Handler.
func (f HandlerFunc) ServeFlash(w ResponseWriter, r *Request) { f(w, r) }

// Request is the v2 handler's view of one request: the parsed head
// plus a streaming body.
type Request struct {
	*httpmsg.Request

	// Body streams the request body. It is never nil: bodyless
	// requests read io.EOF immediately. For "Expect: 100-continue"
	// requests the interim 100 response is sent automatically the
	// first time Body is read (unless response bytes are already on
	// the wire). Body is valid only until ServeFlash returns; the
	// server drains whatever the handler leaves unread.
	Body io.Reader

	// ContentLength is the declared body size: -1 when the body is
	// chunked (size unknown until decoded), 0 when there is no body.
	ContentLength int64

	// RemoteAddr is the client's network address ("ip:port").
	RemoteAddr string
}

// ResponseWriter assembles a handler's response. The zero-state
// contract mirrors net/http: Header may be mutated until WriteHeader
// (or the first Write, which implies WriteHeader(200)); after that the
// header is frozen. On HTTP/1.1, responses without an explicit
// Content-Length header are chunk-encoded so the connection can
// persist; with a valid Content-Length the body is sent as-is (and the
// connection closes early if the handler writes a different byte
// count, so truncation is never silent). On HTTP/1.0 responses without
// Content-Length are close-delimited.
type ResponseWriter interface {
	// Header returns the header map that will be sent by WriteHeader.
	Header() Header
	// WriteHeader freezes the header map and records the status code.
	// Only the first call has any effect.
	WriteHeader(status int)
	// Write sends body bytes (calling WriteHeader(200) first if
	// needed). Writes are coalesced into pipe-sized buffers; use Flush
	// to force bytes out early.
	Write(p []byte) (int, error)
	// Flush pushes any buffered bytes to the client.
	Flush()
}

// Header holds response header fields for a Handler, keyed in
// canonical MIME form (as normalized by Set/Add/Get/Del). It has the
// same shape and semantics as net/http.Header but is deliberately a
// distinct type: the server core stays free of net/http (the paper's
// server predates frameworks, and internal/flashhttp is the one
// sanctioned bridge between the two worlds).
//
// Connection, Transfer-Encoding, Date, and Server are owned by the
// server and ignored if set. Content-Type and Content-Length are
// honored: Content-Type is emitted in the server's canonical position
// and Content-Length selects identity framing over chunked encoding.
type Header map[string][]string

// Set replaces any existing values for key.
func (h Header) Set(key, value string) {
	h[textproto.CanonicalMIMEHeaderKey(key)] = []string{value}
}

// Add appends a value for key.
func (h Header) Add(key, value string) {
	k := textproto.CanonicalMIMEHeaderKey(key)
	h[k] = append(h[k], value)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	v := h[textproto.CanonicalMIMEHeaderKey(key)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Del removes all values for key.
func (h Header) Del(key string) {
	delete(h, textproto.CanonicalMIMEHeaderKey(key))
}

// ErrResponseAborted is returned by ResponseWriter.Write after the
// response cannot proceed (client gone, connection failed, or more
// bytes written than the declared Content-Length).
var ErrResponseAborted = errors.New("flash: response aborted")

// headerOwned lists response fields the server controls; handler
// values for them are dropped rather than emitted twice.
var headerOwned = map[string]bool{
	"Connection":        true,
	"Transfer-Encoding": true,
	"Date":              true,
	"Server":            true,
	"Keep-Alive":        true,
}

// responseWriter is the ResponseWriter implementation: it runs on the
// handler's goroutine and pushes buffers through the connection's
// streamSource, one in flight at a time (the §5.6 pipe). All fields
// are owned by the handler goroutine; the loop and the conn goroutine
// see only the posted items.
type responseWriter struct {
	sh  *shard
	c   *conn
	req *httpmsg.Request
	src *streamSource

	hdr         Header
	status      int
	wroteHeader bool   // WriteHeader called; header frozen
	started     bool   // first bytes queued toward the wire
	finished    bool   // final item queued
	pendingHdr  []byte // assembled header awaiting the first flush
	buf         []byte // coalesced body bytes awaiting a flush

	chunked    bool
	keep       bool
	isHead     bool
	noBody     bool  // HEAD or a bodyless status: writes counted, never sent
	forceClose bool  // persistence vetoed (stranded Expect body)
	declaredCL int64 // from the handler's Content-Length header; -1 none
	written    int64 // body bytes accepted from the handler

	body *bodyReader // the request's body, to judge persistence at finish

	err error
}

func newResponseWriter(s *shard, c *conn, req *httpmsg.Request, src *streamSource) *responseWriter {
	return &responseWriter{
		sh: s, c: c, req: req, src: src,
		hdr:        make(Header),
		declaredCL: -1,
	}
}

// Header implements ResponseWriter.
func (w *responseWriter) Header() Header { return w.hdr }

// WriteHeader implements ResponseWriter: it freezes the header map
// into wire bytes (sent with the first body flush) and fixes the
// response's framing and persistence.
func (w *responseWriter) WriteHeader(status int) {
	if w.wroteHeader || w.err != nil {
		return
	}
	if status >= 100 && status < 200 {
		// Interim responses (100/103) do not freeze the header: emit
		// them directly and keep waiting for the final status, as
		// net/http does — freezing here would leave the client hanging
		// for a final response that never comes.
		w.writeInterim(status)
		return
	}
	if status < 200 || status > 999 {
		status = 500
	}
	w.wroteHeader = true
	w.status = status
	w.assemble()
}

// writeInterim sends a 1xx response ahead of the real one. Only legal
// before any final-response bytes: every earlier response is on the
// wire (conn.serve flushes before it posts a handler exchange) and
// this one has queued nothing, so the direct socket write cannot
// interleave with pipeline output (same argument as the automatic 100
// Continue).
func (w *responseWriter) writeInterim(status int) {
	if w.started || w.req.Major != 1 || w.req.Minor < 1 {
		return
	}
	var b strings.Builder
	b.WriteString("HTTP/1.1 ")
	b.WriteString(strconv.Itoa(status))
	b.WriteString(" ")
	b.WriteString(httpmsg.StatusText(status))
	b.WriteString("\r\n")
	for _, h := range w.extraHeaders() { // e.g. 103 Early Hints' Link headers
		b.WriteString(h)
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	w.c.nc.SetWriteDeadline(time.Now().Add(w.sh.cfg.WriteTimeout))
	w.c.nc.Write([]byte(b.String()))
	if w.body != nil && status == 100 {
		w.body.sendContinue = false // the grant has been given explicitly
	}
}

// assemble renders the frozen header map and status into wire bytes,
// deciding framing and persistence. finish may re-run it (only while
// the bytes are still pending) to downgrade keep-alive.
func (w *responseWriter) assemble() {
	status := w.status
	req := w.req
	w.isHead = req.Method == "HEAD"
	if cl := w.hdr.Get("Content-Length"); cl != "" {
		if n, err := httpmsg.ParseContentLength(cl); err == nil {
			w.declaredCL = n
		}
	}
	bodyless := status == 304 || status == 204 || status < 200
	// A 204/304/1xx response carries no body by definition: writes after
	// such a WriteHeader are discarded like HEAD's — emitting them would
	// desynchronize keep-alive framing (the client parses the stray
	// bytes as the next response's status line).
	w.noBody = w.isHead || bodyless
	w.chunked = w.declaredCL < 0 && !w.isHead && !bodyless &&
		req.Major == 1 && req.Minor >= 1
	// Persistence requires framing the client can see the end of:
	// chunked, an explicit length, or a response with no body at all.
	framed := w.chunked || w.declaredCL >= 0 || w.isHead || bodyless
	w.keep = req.KeepAlive && framed && !w.forceClose

	meta := httpmsg.ResponseMeta{
		Status:        status,
		Proto:         req.Proto,
		ContentType:   w.hdr.Get("Content-Type"),
		ContentLength: -1,
		Chunked:       w.chunked,
		Date:          w.sh.cfg.Clock(),
		KeepAlive:     w.keep,
		ServerName:    w.sh.cfg.ServerName,
		ExtraHeaders:  w.extraHeaders(),
	}
	if !w.chunked && w.declaredCL >= 0 {
		meta.ContentLength = w.declaredCL
	}
	w.pendingHdr = headerFor(req, httpmsg.BuildHeader(meta, true))
}

// extraHeaders renders the handler's header map (minus the fields the
// server owns or emits itself) as "Key: value" lines in sorted order,
// refusing values that would split the header block.
func (w *responseWriter) extraHeaders() []string {
	if len(w.hdr) == 0 {
		return nil
	}
	keys := make([]string, 0, len(w.hdr))
	for k := range w.hdr {
		if headerOwned[k] || k == "Content-Type" || k == "Content-Length" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		for _, v := range w.hdr[k] {
			if strings.ContainsAny(k, "\r\n\x00") || strings.ContainsAny(v, "\r\n\x00") {
				continue // CRLF injection: drop, never emit
			}
			out = append(out, k+": "+v)
		}
	}
	return out
}

// Write implements ResponseWriter.
func (w *responseWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if !w.wroteHeader {
		w.WriteHeader(200)
	}
	if w.declaredCL >= 0 && w.written+int64(len(p)) > w.declaredCL {
		// More bytes than promised: the framing is already committed,
		// so the only honest signal is a hard stop.
		w.fail()
		return 0, ErrResponseAborted
	}
	w.written += int64(len(p))
	if w.noBody {
		return len(p), nil // counted, never sent
	}
	// Ship at most one pipe buffer at a time: a single huge Write must
	// not pile the whole response into memory or defeat the per-buffer
	// flow control (a slow client throttles its handler every
	// dynBufSize bytes). The copy into buf exists for chunked framing
	// (AppendChunk prefixes and suffixes the span anyway) and for
	// sub-buffer coalescing; identity-framed full windows post slices
	// of p directly — safe, because send blocks until the item has
	// been transmitted, so p is pinned only until Write returns.
	total := len(p)
	for len(p) > 0 {
		if !w.chunked && w.pendingHdr == nil && len(w.buf) == 0 && len(p) >= dynBufSize {
			if !w.send(p[:dynBufSize], false) {
				w.err = ErrResponseAborted
				return total - len(p), w.err
			}
			p = p[dynBufSize:]
			continue
		}
		n := dynBufSize - len(w.buf)
		if n > len(p) {
			n = len(p)
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if len(w.buf) >= dynBufSize {
			if !w.flushBuf(false) {
				// Earlier spans of p were already accepted (and possibly
				// transmitted): report them, per the io.Writer contract.
				return total - len(p), w.err
			}
		}
	}
	return total, nil
}

// Flush implements ResponseWriter.
func (w *responseWriter) Flush() {
	if w.err != nil || w.finished {
		return
	}
	if !w.wroteHeader {
		w.WriteHeader(200)
	}
	if len(w.buf) > 0 || w.pendingHdr != nil {
		w.flushBuf(false)
	}
}

// flushBuf ships the pending header plus buffered body bytes as one
// pipeline item; last marks the response's final item.
func (w *responseWriter) flushBuf(last bool) bool {
	out := w.pendingHdr
	w.pendingHdr = nil
	if len(w.buf) > 0 {
		if w.chunked {
			out = httpmsg.AppendChunk(out, w.buf)
		} else {
			out = append(out, w.buf...)
		}
		w.buf = w.buf[:0]
	}
	if last && w.chunked {
		out = append(out, httpmsg.FinalChunk...)
	}
	if !w.send(out, last) {
		w.err = ErrResponseAborted
		return false
	}
	return true
}

// send posts one item to the loop and blocks until the pipeline acks
// it — at most one buffer in flight, the paper's pipe acting as flow
// control. Reports false when the response cannot continue.
func (w *responseWriter) send(data []byte, last bool) bool {
	w.started = true
	keep, status, req, c := w.keep, w.status, w.req, w.c
	w.sh.post(func() {
		req.KeepAlive = keep // settle decides persistence from this
		c.ls.status = status
		c.ls.req = req
		w.sh.queueItem(c, writeItem{data: data, last: last})
	})
	select {
	case ok := <-w.src.ack:
		return ok
	case <-c.done:
		return false
	}
}

// finish completes the response after ServeFlash returns: it sends the
// header if the handler never wrote anything, flushes remaining bytes,
// and closes the framing. A Content-Length mismatch aborts the
// connection so the truncation is visible to the client.
func (w *responseWriter) finish() {
	if w.err != nil || w.finished {
		return
	}
	if !w.wroteHeader {
		w.WriteHeader(200)
	}
	if w.declaredCL >= 0 && !w.noBody && w.written != w.declaredCL {
		w.fail()
		return
	}
	if w.pendingHdr != nil && w.keep && w.body != nil && w.body.mayCloseOnDrain() {
		// The reader may close rather than finish draining this body —
		// it already errored (overflow, truncation, bad framing), the
		// handler answered without granting the client's 100-continue,
		// or an unread chunked body could overflow its cap mid-drain —
		// so the header, still unsent, must not promise keep-alive
		// (RFC 7230 §6.6).
		w.forceClose = true
		w.assemble()
	}
	w.finished = true
	w.flushBuf(true)
}

// fail aborts the exchange: the connection is torn down (mid-stream
// the promised framing can no longer be honored).
func (w *responseWriter) fail() {
	if w.err != nil {
		return
	}
	w.err = ErrResponseAborted
	c := w.c
	w.sh.post(func() { w.sh.failConn(c) })
}

// hijackError routes the exchange to the loop's fixed error responder
// (the panic recovery's 500). Only legal before any response bytes
// started.
func (w *responseWriter) hijackError(status int) {
	if w.err != nil || w.started {
		w.fail()
		return
	}
	w.err = ErrResponseAborted
	c := w.c
	w.sh.post(func() { w.sh.errorResponse(c, status, false) })
}

// dynBufSize is the pipe buffer between a dynamic producer and the
// connection writer.
const dynBufSize = 32 << 10

// streamSource is the handler-output implementation of bodySource: the
// handler goroutine (the "CGI process") posts each buffer to the loop
// as one item, then blocks until the pipeline acks it — so at most one
// buffer is ever in flight, the paper's pipe acting as flow control.
// The roles invert relative to the pull sources: release (and abort)
// ack the producer over the flow-control channel, and next has nothing
// to do because the producer pushes as acks arrive.
type streamSource struct {
	ack chan bool // pipeline → producer: item done; true = keep going
}

func (st *streamSource) next(*shard, *conn) {}

func (st *streamSource) release(s *shard, c *conn, item writeItem, ok bool) {
	select {
	case st.ack <- ok:
	default:
	}
}

func (st *streamSource) abort(s *shard, c *conn) {
	// Unblock a producer waiting on an ack that will never come; any
	// later items it posts are dropped (and acked false) by queueItem.
	select {
	case st.ack <- false:
	default:
	}
}

// startHandler launches a v2 handler for one exchange. Runs on the
// event loop; the handler itself runs on a fresh goroutine (the "CGI
// process") whose output streams through a streamSource.
func (s *shard) startHandler(c *conn, req *httpmsg.Request, h Handler, body *bodyReader) {
	s.stats.DynamicCalls++
	// Handlers (and the net/http bridge) see the familiar Headers map;
	// the zero-copy inline fields are deep-copied into it here, part of
	// the dynamic path's documented allocation budget.
	req.MaterializeHeaders()
	src := &streamSource{ack: make(chan bool, 1)}
	c.ls.src = src

	w := newResponseWriter(s, c, req, src)
	r := &Request{
		Request:    req,
		Body:       io.Reader(eofReader{}),
		RemoteAddr: c.remote,
	}
	if body != nil {
		body.w = w
		w.body = body
		r.Body = body
		r.ContentLength = body.contentLength()
	}

	go func() {
		defer func() {
			if p := recover(); p != nil {
				// A panicking handler must not take the server down;
				// answer 500 when nothing was sent, else cut the
				// connection so the truncation is visible — and leave a
				// trace, or the handler bug is undiagnosable.
				log.Printf("flash: panic serving %s %s from %s: %v\n%s",
					req.Method, req.Path, r.RemoteAddr, p, debug.Stack())
				w.hijackError(500)
				return
			}
			w.finish()
		}()
		h.ServeFlash(w, r)
	}()
}

// eofReader is the Body of a bodyless request.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }
