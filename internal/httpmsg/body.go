package httpmsg

import (
	"errors"
	"strconv"
	"strings"
)

// BodyKind classifies how a request body is framed on the wire.
type BodyKind int

const (
	// BodyNone: the request carries no body (no Content-Length, no
	// Transfer-Encoding, or an explicit Content-Length: 0).
	BodyNone BodyKind = iota
	// BodyLength: exactly Content-Length bytes follow the header block.
	BodyLength
	// BodyChunked: the body is chunk-encoded and self-delimiting.
	BodyChunked
	// BodyUntilClose: the body extends to the connection's close —
	// no Content-Length, no Transfer-Encoding. Responses only
	// (Response.BodyFraming); a request body can never be framed this
	// way.
	BodyUntilClose
)

// Body-framing errors.
var (
	// ErrBadTransferEncoding marks a Transfer-Encoding the server does
	// not implement (anything but a lone "chunked") — a 501.
	ErrBadTransferEncoding = errors.New("httpmsg: unsupported transfer encoding")
	// ErrAmbiguousFraming marks a request carrying both Transfer-Encoding
	// and Content-Length: the classic request-smuggling vector, refused
	// outright with a 400 rather than picking a winner.
	ErrAmbiguousFraming = errors.New("httpmsg: both Transfer-Encoding and Content-Length")
	// ErrChunkTooLong marks a chunk-size line (or trailer block) that
	// exceeds the decoder's cap.
	ErrChunkTooLong = errors.New("httpmsg: chunk size line or trailer too long")
	// ErrBadChunk marks malformed chunked framing.
	ErrBadChunk = errors.New("httpmsg: malformed chunked body")
)

// BodyFraming inspects the parsed request's headers and reports how the
// bytes after the header block are framed: chunked, length-delimited
// (with the byte count), or absent. A request with an unsupported
// Transfer-Encoding yields ErrBadTransferEncoding (501); both
// Transfer-Encoding and Content-Length together yield
// ErrAmbiguousFraming, and an unparseable Content-Length yields
// ErrMalformed (both 400).
func (r *Request) BodyFraming() (BodyKind, int64, error) {
	return r.framing(BodyNone)
}

// ExpectsContinue reports whether the request asks for a 100 Continue
// interim response before sending its body (HTTP/1.1 only; 1.0 clients
// that send Expect are ignored per RFC 7231 §5.1.1).
func (r *Request) ExpectsContinue() bool {
	v, ok := r.Header("expect")
	return ok && r.Major == 1 && r.Minor >= 1 &&
		strings.EqualFold(strings.TrimSpace(v), "100-continue")
}

// HasExpectation reports whether the request carries any Expect header
// at all; an expectation other than 100-continue must be refused with
// 417 (RFC 7231 §5.1.1).
func (r *Request) HasExpectation() bool {
	_, ok := r.Header("expect")
	return ok
}

// Continue100 is the interim response granting a client's
// "Expect: 100-continue" (written verbatim before the body is read).
var Continue100 = []byte("HTTP/1.1 100 Continue\r\n\r\n")

// Decoder caps: a chunk-size line (including extensions) and the whole
// trailer block are bounded so a hostile peer cannot stream framing
// bytes forever without ever producing body data.
const (
	maxChunkLineBytes = 256
	maxTrailerBytes   = 8 << 10
)

// chunked-decoder states.
const (
	chunkStateSize    = iota // accumulating the hex size line
	chunkStateData           // inside a chunk's data bytes
	chunkStateDataCR         // after data, expecting CR or LF
	chunkStateDataLF         // after data+CR, expecting LF
	chunkStateTrailer        // after the 0-size chunk, consuming trailers
)

// ChunkedDecoder is an incremental decoder for chunked request bodies:
// a pure byte-in/byte-out state machine with no I/O, fed whatever the
// caller has buffered, so it tolerates any split of the input across
// reads (and fuzzes cleanly). Trailer fields after the terminal chunk
// are consumed and ignored. The zero value is ready to use.
type ChunkedDecoder struct {
	state   int
	line    []byte // pending size or trailer line
	remain  int64  // data bytes left in the current chunk
	trailer int    // trailer bytes consumed so far
	done    bool
}

// Done reports whether the terminal chunk and its trailer block have
// been fully consumed.
func (d *ChunkedDecoder) Done() bool { return d.done }

// Next consumes framing and data from src, copying decoded body bytes
// into dst. It returns how many src bytes were consumed and how many
// dst bytes were produced; done reports the body is complete (bytes of
// src beyond nsrc belong to the next message). Next never over-reads:
// once done, it consumes nothing further. It returns as soon as any
// body bytes are produced, dst is full, src is exhausted, or the body
// ends.
func (d *ChunkedDecoder) Next(src, dst []byte) (nsrc, ndst int, done bool, err error) {
	for nsrc < len(src) && !d.done {
		switch d.state {
		case chunkStateSize, chunkStateTrailer:
			b := src[nsrc]
			nsrc++
			if b != '\n' {
				// Size lines get the tight cap; a trailer line may use
				// the whole trailer budget (a 300-byte checksum trailer
				// is legal even though no size line ever is).
				lineCap := maxChunkLineBytes
				if d.state == chunkStateTrailer {
					lineCap = maxTrailerBytes
				}
				if len(d.line) >= lineCap {
					return nsrc, ndst, false, ErrChunkTooLong
				}
				d.line = append(d.line, b)
				continue
			}
			line := strings.TrimSuffix(string(d.line), "\r")
			d.line = d.line[:0]
			if d.state == chunkStateTrailer {
				d.trailer += len(line) + 1
				if d.trailer > maxTrailerBytes {
					return nsrc, ndst, false, ErrChunkTooLong
				}
				if line == "" { // blank line ends the trailer block
					d.done = true
				}
				continue
			}
			n, perr := parseChunkSize(line)
			if perr != nil {
				return nsrc, ndst, false, perr
			}
			if n == 0 {
				d.state = chunkStateTrailer
				continue
			}
			d.remain = n
			d.state = chunkStateData
		case chunkStateData:
			if ndst == len(dst) {
				return nsrc, ndst, false, nil // dst full; resume later
			}
			n := int64(len(src) - nsrc)
			if n > d.remain {
				n = d.remain
			}
			if m := int64(len(dst) - ndst); n > m {
				n = m
			}
			copy(dst[ndst:], src[nsrc:nsrc+int(n)])
			nsrc += int(n)
			ndst += int(n)
			d.remain -= n
			if d.remain == 0 {
				d.state = chunkStateDataCR
			}
			if ndst > 0 {
				// Hand decoded bytes back promptly (the CRLF and the next
				// size line are consumed on the following call).
				return nsrc, ndst, d.done, nil
			}
		case chunkStateDataCR:
			switch src[nsrc] {
			case '\r':
				nsrc++
				d.state = chunkStateDataLF
			case '\n':
				nsrc++
				d.state = chunkStateSize
			default:
				return nsrc, ndst, false, ErrBadChunk
			}
		case chunkStateDataLF:
			if src[nsrc] != '\n' {
				return nsrc, ndst, false, ErrBadChunk
			}
			nsrc++
			d.state = chunkStateSize
		}
	}
	return nsrc, ndst, d.done, nil
}

// parseChunkSize parses one chunk-size line: hex digits optionally
// followed by ";extensions" (ignored).
func parseChunkSize(line string) (int64, error) {
	if semi := strings.IndexByte(line, ';'); semi >= 0 {
		line = line[:semi]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return 0, ErrBadChunk
	}
	n, err := strconv.ParseUint(line, 16, 62)
	if err != nil {
		return 0, ErrBadChunk
	}
	return int64(n), nil
}
