package httpmsg

import (
	"strconv"
	"strings"
)

// This file is the client side of the protocol stack: parsing response
// heads read FROM an origin server, used by the reverse-proxy tier
// (internal/upstream). A Response embeds the request's header-field
// block, so origin heads obey the same field rules, with the one
// difference RFC 9112 §5.1 asks of a proxy: whitespace between a field
// name and its colon is removed rather than refused. Each upstream
// connection recycles one Response through Reset+ParseBytes.

// Response is a parsed HTTP response head (status line + headers).
// Reason and the header fields behind Header are views over the buffer
// given to ParseBytes: they are valid only until that buffer is
// modified or the Response is parsed again.
type Response struct {
	Proto  string // "HTTP/1.0" or "HTTP/1.1"
	Major  int
	Minor  int
	Status int
	Reason string // reason phrase, may be empty

	fieldBlock
}

// Reset re-arms a Response for the next ParseBytes, dropping every
// field and view from the previous parse.
func (r *Response) Reset() {
	more := r.recycle()
	*r = Response{}
	r.more = more
}

// ParseBytes parses a complete response head into r: the reason phrase
// and header fields become views over buf, with field names lower-cased
// IN PLACE inside buf (the caller owns the buffer and must treat it as
// mutated). An obs-fold line is ErrMalformed, which a proxy answers 502
// (RFC 9112 §5.2).
//
// Call Reset before re-parsing into the same Response. On error the
// Response's contents are unspecified.
func (r *Response) ParseBytes(buf []byte) error {
	head, err := completeHead(buf, HeaderEnd(buf))
	if err != nil {
		return err
	}
	line, i := nextLine(head, 0)
	if err := r.parseStatusLine(bview(line)); err != nil {
		return err
	}
	return r.parseFields(head, i, true)
}

// parseStatusLine parses "HTTP/1.x NNN reason". The reason phrase is
// optional and may contain spaces; a missing one parses as "".
func (r *Response) parseStatusLine(line string) error {
	for i := 0; i < len(line); i++ {
		if c := line[i]; (c < 0x20 && c != '\t') || c >= 0x7f {
			return ErrMalformed // a control or non-ASCII byte
		}
	}
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return ErrMalformed
	}
	switch line[:sp] {
	case "HTTP/1.0":
		r.Proto, r.Major, r.Minor = "HTTP/1.0", 1, 0
	case "HTTP/1.1":
		r.Proto, r.Major, r.Minor = "HTTP/1.1", 1, 1
	default:
		return ErrUnsupported
	}
	rest := line[sp+1:]
	code := rest
	if sp = strings.IndexByte(rest, ' '); sp >= 0 {
		code, r.Reason = rest[:sp], rest[sp+1:]
	}
	// RFC 9112 §4: exactly three digits.
	if len(code) != 3 {
		return ErrMalformed
	}
	n, err := strconv.Atoi(code)
	if err != nil || n < 100 {
		return ErrMalformed
	}
	r.Status = n
	return nil
}

// KeepAlive reports whether the origin connection may be reused after
// this response, applying the HTTP defaulting rules (1.1 defaults on
// unless "Connection: close"; 1.0 requires "keep-alive").
func (r *Response) KeepAlive() bool {
	return r.keepAlive(r.Major, r.Minor)
}

// BodyFraming inspects the response head and reports how the bytes
// after the header block are framed, given the request method that
// elicited the response: chunked, length-delimited (with the byte
// count), absent, or — the response-only case — extending to the
// connection's close (BodyUntilClose, n = -1). Responses to HEAD and
// 1xx/204/304 responses never carry a body regardless of their framing
// headers (RFC 9112 §6.3). Transfer-Encoding other than a lone
// "chunked" yields ErrBadTransferEncoding; Transfer-Encoding combined
// with Content-Length is refused as ErrAmbiguousFraming (the strict
// reading — a proxy must not guess at framing); an unparseable
// Content-Length yields ErrMalformed.
func (r *Response) BodyFraming(reqMethod string) (BodyKind, int64, error) {
	if reqMethod == "HEAD" || r.Status < 200 || r.Status == 204 || r.Status == 304 {
		return BodyNone, 0, nil
	}
	return r.framing(BodyUntilClose)
}
