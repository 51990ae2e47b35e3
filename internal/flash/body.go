package flash

import (
	"errors"
	"io"
	"time"

	"repro/internal/httpmsg"
)

// Body errors surfaced to handlers.
var (
	// ErrBodyTooLarge is returned by Request.Body once the decoded
	// body exceeds the route's byte limit; the connection closes after
	// the response because the remaining framing cannot be trusted to
	// terminate.
	ErrBodyTooLarge = errors.New("flash: request body too large")
)

// bodyReader streams one request's body to its handler. It is created
// by the connection's goroutine, read by the handler goroutine while
// the conn goroutine is parked waiting for the response, and drained
// by the conn goroutine afterwards — never two at once, so it needs no
// locks. Raw bytes come from the connection's pipelining carry-over
// buffer first, then the socket; for chunked bodies, bytes past the
// terminator are pushed back into the carry-over for the next request.
type bodyReader struct {
	c *conn

	kind   httpmsg.BodyKind
	remain int64 // BodyLength: undelivered body bytes
	dec    httpmsg.ChunkedDecoder
	raw    []byte // staged undecoded input (chunked)
	rawBuf []byte // backing array reused between fills

	limit int64 // decoded-byte cap; <= 0 means unlimited
	total int64 // decoded bytes delivered so far

	// sendContinue is armed for "Expect: 100-continue" requests: the
	// interim response goes out immediately before the first body read,
	// unless the handler already started the real response.
	sendContinue bool
	w            *responseWriter // response state, to gate the 100

	// deadline bounds the whole body transfer (Config.BodyReadTimeout):
	// per-read deadlines alone would let a peer trickle one byte per
	// readTimeout forever. Zero means unbounded.
	deadline time.Time

	done bool
	err  error
}

// newBodyReader builds the reader for one request. kind/clen come from
// httpmsg.BodyFraming; limit caps the decoded size (chunked bodies are
// enforced as they decode — length-framed ones were already checked
// against the header's Content-Length).
func newBodyReader(c *conn, kind httpmsg.BodyKind, clen, limit int64, expectContinue bool) *bodyReader {
	br := &bodyReader{
		c:            c,
		kind:         kind,
		remain:       clen,
		limit:        limit,
		sendContinue: expectContinue,
		done:         kind == httpmsg.BodyNone,
	}
	if t := c.sh.cfg.BodyReadTimeout; t > 0 {
		br.deadline = time.Now().Add(t)
	}
	return br
}

// contentLength reports the declared size for Request.ContentLength.
func (br *bodyReader) contentLength() int64 {
	switch br.kind {
	case httpmsg.BodyLength:
		return br.remain
	case httpmsg.BodyChunked:
		return -1
	}
	return 0
}

// Read implements io.Reader for the handler.
func (br *bodyReader) Read(p []byte) (int, error) {
	if br.err != nil {
		return 0, br.err
	}
	if br.done {
		return 0, io.EOF
	}
	if len(p) == 0 {
		// A zero-length read must not block, spin (the chunked decoder
		// can make no progress into an empty dst), or trigger the 100.
		return 0, nil
	}
	if br.sendContinue {
		br.sendContinue = false
		if br.w == nil || !br.w.started {
			// The client is (possibly) waiting for permission to send
			// the body: grant it directly on the socket. No response
			// bytes are in flight yet — the handler triggers this read
			// before its first write, and every earlier response was
			// written before this exchange began (conn.serve flushes
			// what it has corked before it posts a bodied exchange) —
			// so the write cannot interleave with pipeline output.
			br.c.nc.SetWriteDeadline(time.Now().Add(br.c.sh.cfg.WriteTimeout))
			if _, err := br.c.nc.Write(httpmsg.Continue100); err != nil {
				br.err = err
				return 0, err
			}
		}
	}
	switch br.kind {
	case httpmsg.BodyLength:
		return br.readLength(p)
	case httpmsg.BodyChunked:
		return br.readChunked(p)
	}
	br.done = true
	return 0, io.EOF
}

func (br *bodyReader) readLength(p []byte) (int, error) {
	if int64(len(p)) > br.remain {
		p = p[:br.remain]
	}
	n, err := br.c.readRaw(p, br.deadline)
	br.remain -= int64(n)
	br.total += int64(n)
	if br.remain == 0 {
		br.done = true
		if err != nil {
			err = nil // the body is complete; the error belongs to the next read
		}
	} else if err == io.EOF {
		// The peer closed short of its declared Content-Length: that is
		// a truncation, not a clean end — a bare EOF here would make
		// io.Copy callers mistake a partial upload for a complete one.
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		br.err = err
	}
	return n, err
}

func (br *bodyReader) readChunked(p []byte) (int, error) {
	for {
		if len(br.raw) == 0 {
			if br.rawBuf == nil {
				br.rawBuf = make([]byte, 4096)
			}
			n, err := br.c.readRaw(br.rawBuf, br.deadline)
			if n == 0 {
				if err == nil || err == io.EOF {
					// The peer closed (or stalled) mid-chunk: the framing
					// is incomplete, so a bare EOF would make io.Copy
					// callers mistake a partial upload for a complete one
					// (mirrors readLength).
					err = io.ErrUnexpectedEOF
				}
				br.err = err
				return 0, err
			}
			br.raw = br.rawBuf[:n]
		}
		nsrc, ndst, done, err := br.dec.Next(br.raw, p)
		br.raw = br.raw[nsrc:]
		br.total += int64(ndst)
		if err != nil {
			br.err = err
			return ndst, err
		}
		if br.limit > 0 && br.total > br.limit {
			br.err = ErrBodyTooLarge
			return ndst, ErrBodyTooLarge
		}
		if done {
			br.done = true
			// Bytes past the terminator are the next pipelined request.
			br.c.unread(br.raw)
			br.raw = nil
			if ndst == 0 {
				return 0, io.EOF
			}
			return ndst, nil
		}
		if ndst > 0 {
			return ndst, nil
		}
	}
}

// strandedExpect reports that the client is (possibly) still waiting
// for a 100 Continue that will now never come: the grant was armed,
// the body is not yet complete, and no body byte was read or has
// arrived. (An Expect request with Content-Length: 0 is born done —
// nothing is stranded.) drain refuses such a connection, so the
// response header must not promise keep-alive.
func (br *bodyReader) strandedExpect() bool {
	return br.sendContinue && !br.done &&
		br.total == 0 && len(br.raw) == 0 && br.c.re == br.c.rs
}

// mayCloseOnDrain reports that draining this body might fail, so the
// response header must not promise a persistence the reader could
// immediately revoke: the body already errored, the client is stranded
// behind an ungranted 100, or an unread chunked body of unknown size
// could overflow its cap mid-drain. (An unread length-framed body is
// safe: its remainder is known and already checked against the cap.)
func (br *bodyReader) mayCloseOnDrain() bool {
	if br.err != nil || br.strandedExpect() {
		return true
	}
	return !br.done && br.kind == httpmsg.BodyChunked && br.limit > 0
}

// drain consumes whatever the handler left unread so the next
// pipelined request starts at a clean boundary. It reports false when
// the connection must close instead: the body errored, overflowed its
// limit, or the client was left waiting for a 100 Continue that never
// came (draining would stall until it gave up and sent the body
// anyway, so the close is kinder on both sides).
func (br *bodyReader) drain() bool {
	if br == nil || br.done {
		return true
	}
	if br.err != nil {
		return false
	}
	if br.strandedExpect() {
		return false
	}
	br.sendContinue = false
	_, err := io.Copy(io.Discard, br)
	return err == nil && br.done
}
