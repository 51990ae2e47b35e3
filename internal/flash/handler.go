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
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/httpmsg"
)

// Handler is the v2 dynamic-content interface: the full-peer analogue
// of the paper's §5.6 CGI processes, which receive the whole request
// and emit arbitrary headers and bodies back over the pipe. ServeFlash
// runs on its own goroutine — the stand-in for a persistent CGI-bin
// process — so it may block on disk, the network, the request body, or
// long computations without stalling the shard's event loop. Its
// goroutine writes the response to the socket itself, one pipe buffer
// at a time, so a slow client throttles its handler and never the loop;
// the loop hears of the exchange twice, when it starts the handler and
// when ServeFlash returns.
//
// The ResponseWriter and the Request (including its Body) are only
// valid until ServeFlash returns: a Write after that fails with
// ErrResponseAborted and sends nothing.
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
// response cannot proceed (client gone, connection failed, more bytes
// written than the declared Content-Length, or ServeFlash has
// returned).
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
// handler's goroutine and writes the socket itself (write). While a
// handler runs, the connection's goroutine waits for the exchange's end
// with nothing corked — conn.serve flushes before it posts a handler
// exchange, and a handler head is always a batch of one — so these
// writes cannot interleave with other output. All fields are owned by
// the handler goroutine; when ServeFlash returns, one message carries
// the outcome to the loop (finish).
type responseWriter struct {
	sh  *shard
	c   *conn
	req *httpmsg.Request

	hdr         Header
	status      int
	wroteHeader bool   // WriteHeader called; header frozen
	started     bool   // first response bytes written
	pendingHdr  []byte // assembled header awaiting the first flush
	buf         []byte // coalesced body bytes awaiting a flush
	sent        int64  // bytes written to the socket
	writes      int32  // socket write calls
	// done is set once ServeFlash has returned: a later Write would
	// land in the next exchange's bytes.
	done atomic.Bool

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

func newResponseWriter(s *shard, c *conn, req *httpmsg.Request) *responseWriter {
	return &responseWriter{
		sh: s, c: c, req: req,
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
// before any final-response bytes.
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
	w.write([]byte(b.String()))
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
	if w.done.Load() {
		return 0, ErrResponseAborted
	}
	if w.err != nil {
		return 0, w.err
	}
	if !w.wroteHeader {
		w.WriteHeader(200)
	}
	if w.declaredCL >= 0 && w.written+int64(len(p)) > w.declaredCL {
		// More bytes than promised: the framing is already committed,
		// so the only honest signal is a hard stop — the exchange ends
		// failed, closing the connection.
		w.err = ErrResponseAborted
		return 0, w.err
	}
	w.written += int64(len(p))
	if w.noBody {
		return len(p), nil // counted, never sent
	}
	// Ship at most one pipe buffer at a time: a single huge Write must
	// not pile the whole response into memory (a slow client throttles
	// its handler every dynBufSize bytes). The copy into buf exists for
	// chunked framing (AppendChunk prefixes and suffixes the span
	// anyway) and for sub-buffer coalescing; identity-framed full
	// windows are written straight from p.
	total := len(p)
	for len(p) > 0 {
		if !w.chunked && w.pendingHdr == nil && len(w.buf) == 0 && len(p) >= dynBufSize {
			if !w.send(p[:dynBufSize]) {
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
	if w.done.Load() || w.err != nil {
		return
	}
	if !w.wroteHeader {
		w.WriteHeader(200)
	}
	if len(w.buf) > 0 || w.pendingHdr != nil {
		w.flushBuf(false)
	}
}

// flushBuf writes the pending header plus buffered body bytes as one
// buffer; last closes a chunked body with its final chunk.
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
	if len(out) == 0 {
		return true // an identity body whose last bytes are already out
	}
	return w.send(out)
}

// send writes one buffer of the response. It reports false when the
// response cannot continue.
func (w *responseWriter) send(data []byte) bool {
	w.started = true
	if w.write(data) != nil {
		w.err = ErrResponseAborted
		return false
	}
	return true
}

// write is the handler goroutine's one way to the socket — response
// buffers, interim responses, the automatic 100 Continue — under
// WriteTimeout and the flash/conn-write failpoint, like the
// connection's own writes (conn.transmit). The call and its bytes are
// counted for the exchange's end.
func (w *responseWriter) write(p []byte) error {
	c := w.c
	if failpoint.Armed() {
		if err := fpConnWrite.Eval(c.nc.RemoteAddr().String()); err != nil {
			return err
		}
	}
	c.armWrite(w.sh.cfg.WriteTimeout)
	w.writes++
	n, err := c.nc.Write(p)
	w.sent += int64(n)
	return err
}

// finish completes the response after ServeFlash returns — it sends
// the header if the handler never wrote anything, flushes remaining
// bytes and closes the framing; a Content-Length mismatch fails it
// instead, so the truncation is visible to the client — and ends the
// exchange: one message carries the status, the persistence verdict,
// the bytes and the write calls to the loop (shard.handlerDone).
func (w *responseWriter) finish() {
	// Before the last bytes go out: a client that has read them must find
	// a later Write refused.
	w.done.Store(true)
	if w.err == nil {
		if !w.wroteHeader {
			w.WriteHeader(200)
		}
		if w.declaredCL >= 0 && !w.noBody && w.written != w.declaredCL {
			w.err = ErrResponseAborted
		} else {
			if w.pendingHdr != nil && w.keep && w.body != nil && w.body.mayCloseOnDrain() {
				// The reader may close rather than finish draining this
				// body — it already errored (overflow, truncation, bad
				// framing), the handler answered without granting the
				// client's 100-continue, or an unread chunked body could
				// overflow its cap mid-drain — so the header, still
				// unsent, must not promise keep-alive (RFC 7230 §6.6).
				w.forceClose = true
				w.assemble()
			}
			w.flushBuf(true)
		}
	}
	s, c := w.sh, w.c
	status, keep, sent, writes, ok := w.status, w.keep, w.sent, w.writes, w.err == nil
	s.post(func() { s.handlerDone(c, status, keep, sent, writes, ok) })
}

// handlerDone settles a handler's exchange on the loop once ServeFlash
// has returned: the bytes and write calls its goroutine made are
// counted, and a response written whole completes like any other
// (settle); a failed one — or one whose connection ended meanwhile —
// ends the exchange and the connection.
func (s *shard) handlerDone(c *conn, status int, keep bool, sent int64, writes int32, ok bool) {
	s.stats.GatherWrites += uint64(writes)
	s.stats.BytesSent += sent
	s.stats.BytesCopied += sent
	c.ls.bytesSent += sent
	if !ok {
		s.markFailed(c)
	}
	if c.failed || c.writeDone {
		c.writeDone = true
		s.signalNext(c, false)
		return
	}
	c.ls.status = status
	c.ls.req.KeepAlive = keep // settle decides persistence from this
	s.signalNext(c, s.settle(c))
}

// dynBufSize is the pipe buffer between a dynamic producer and the
// socket.
const dynBufSize = 32 << 10

// startHandler launches a v2 handler for one exchange. Runs on the
// event loop; the handler itself runs on a fresh goroutine (the "CGI
// process"), which writes the response itself.
func (s *shard) startHandler(c *conn, req *httpmsg.Request, h Handler, body *bodyReader) {
	s.stats.DynamicCalls++
	// Handlers (and the net/http bridge) see the familiar Headers map;
	// the zero-copy field views are deep-copied into it here, part of
	// the dynamic path's documented allocation budget.
	req.MaterializeHeaders()

	w := newResponseWriter(s, c, req)
	r := &Request{
		Request:    req,
		Body:       io.Reader(eofReader{}),
		RemoteAddr: c.remoteAddr(),
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
				if w.err == nil && !w.started {
					w.done.Store(true)
					s.post(func() { s.errorResponse(c, 500, false) })
					return
				}
				w.err = ErrResponseAborted
			}
			w.finish()
		}()
		h.ServeFlash(w, r)
	}()
}

// eofReader is the Body of a bodyless request.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }
