// Package httpmsg implements the HTTP/1.0 and HTTP/1.1 message handling
// used by the Flash web server: request parsing, response header
// generation with byte-position alignment (§5.5 of the paper), MIME
// types, and the Common Log Format used for trace replay.
//
// The package is deliberately self-contained (no net/http dependency) —
// the paper's server predates and does not use a framework, and the
// simulator shares the header-size and alignment math.
//
// One parser serves both message kinds: Request and Response embed the
// same header-field block, so a request read from a client and a
// response read from an origin obey one set of field rules (RFC 9112
// §5: token names, SP/HTAB as the only OWS, no obs-fold) and share one
// lookup, framing and persistence implementation. The server recycles
// one message per connection through Reset+ParseBytes: method, target
// and fields are views over the caller's buffer (16 fields inline, an
// overflow slice kept across Reset beyond that), so a steady-state
// parse performs no heap allocations at all.
package httpmsg

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Request is a parsed HTTP request, recycled per connection through
// Reset+ParseBytes.
//
// The string fields — Method, Target, Path, Query, IfNoneMatch,
// IfMatch, IfRange, and the header fields behind Header — are views
// over the buffer given to ParseBytes: they are valid only until that
// buffer is modified or the Request is parsed again.
// MaterializeHeaders turns them into owned copies and fills Headers.
type Request struct {
	Method  string
	Target  string // raw request target (path + optional query)
	Path    string // decoded, cleaned path component
	Query   string // raw query string (after '?')
	Proto   string // "HTTP/0.9", "HTTP/1.0" or "HTTP/1.1"
	Major   int
	Minor   int
	Headers map[string]string // owned copy of the fields; nil until MaterializeHeaders

	// KeepAlive is the effective persistence after applying HTTP
	// defaulting rules (1.1 defaults on, 1.0 requires the header).
	KeepAlive bool
	// IfModifiedSince and IfUnmodifiedSince are the parsed conditional
	// times, zero if absent or unparseable.
	IfModifiedSince   time.Time
	IfUnmodifiedSince time.Time
	// IfNoneMatch is the raw If-None-Match header value ("" if absent).
	// When present it takes precedence over IfModifiedSince (RFC 9110
	// §13.2.2), as IfMatch does over IfUnmodifiedSince.
	IfNoneMatch string
	// IfMatch is the raw If-Match header value ("" if absent).
	IfMatch string
	// IfRange is the raw If-Range header value ("" if absent).
	IfRange string
	// Range is the parsed single byte range, nil when the header is
	// absent or should be ignored (malformed, multi-range).
	Range *ByteRange

	fieldBlock
}

// Errors returned by the parser.
var (
	ErrIncomplete   = errors.New("httpmsg: incomplete request header")
	ErrMalformed    = errors.New("httpmsg: malformed request")
	ErrUnsupported  = errors.New("httpmsg: unsupported protocol version")
	ErrTargetTooBig = errors.New("httpmsg: request target too long")
	ErrHeaderTooBig = errors.New("httpmsg: header block too large")
)

// MaxTargetLen bounds the request target (paths beyond this yield 414).
const MaxTargetLen = 8 << 10

// MaxHeaderLen bounds the total header block.
const MaxHeaderLen = 32 << 10

// HeaderEnd returns the index just past the blank line (CRLF or a bare
// LF) that ends the header block in buf — the first one, the line
// parser's own end — or -1 if the block is not yet complete.
func HeaderEnd(buf []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return -1
		}
		i += j + 1
		if i < len(buf) && buf[i] == '\n' {
			return i + 1
		}
		if i+1 < len(buf) && buf[i] == '\r' && buf[i+1] == '\n' {
			return i + 2
		}
	}
}

// SimpleRequestEnd returns the index just past a complete HTTP/0.9
// simple request ("GET /path" + one line break, no version token, no
// headers), or -1. A 1.x request line never matches: its three fields
// include the HTTP version.
func SimpleRequestEnd(buf []byte) int {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return -1
	}
	f, n := requestLineFields(bytes.TrimRight(buf[:i], "\r"))
	if n != 2 || string(f[0]) != "GET" {
		return -1
	}
	return i + 1
}

// RequestEnd returns the index just past one complete request head —
// a terminated header block or an HTTP/0.9 simple request — or -1.
func RequestEnd(buf []byte) int {
	if e := HeaderEnd(buf); e >= 0 {
		return e
	}
	return SimpleRequestEnd(buf)
}

// Reset re-arms a Request for the next ParseBytes, dropping every field
// and view from the previous parse.
func (r *Request) Reset() {
	more := r.recycle()
	*r = Request{}
	r.more = more
}

// ParseBytes parses a complete request head — a header block including
// the terminating blank line, or an HTTP/0.9 simple request (a lone
// "GET /path" line) — into r. String fields become views over buf, and
// field names are lower-cased IN PLACE inside buf (the caller owns the
// buffer and must treat it as mutated). A steady-state parse allocates
// nothing; a repeated field name, a %-escaped or non-canonical path
// and a Range header may.
//
// Call Reset before re-parsing into the same Request. On error the
// Request's contents are unspecified.
func (r *Request) ParseBytes(buf []byte) error {
	head, err := completeHead(buf, RequestEnd(buf))
	if err != nil {
		return err
	}
	// Tolerate a blank-line preamble before the request line (RFC 9112
	// §2.2: robust servers ignore at least one stray CRLF).
	var line []byte
	i := 0
	for len(line) == 0 {
		if i == len(head) {
			return ErrMalformed
		}
		line, i = nextLine(head, i)
	}
	if err := r.parseRequestLine(line); err != nil {
		return err
	}
	if err := r.parseFields(head, i, false); err != nil {
		return err
	}
	r.applyDefaults()
	return nil
}

// MaterializeHeaders makes the Request own ALL of its storage: every
// field view and scalar view becomes a copy, and Headers maps each
// lower-cased name to its value. Consumers of the map form — the v2
// handler surface and the net/http bridge — idiomatically treat request
// strings as immutable (net/http's are), so none of them may alias the
// recycled head buffer, which is rewritten by the next request on the
// connection.
func (r *Request) MaterializeHeaders() {
	r.own()
	r.Headers = make(map[string]string, r.NumHeaders())
	r.EachHeader(func(name, value string) { r.Headers[name] = value })
	r.Method = strings.Clone(r.Method)
	r.Target = strings.Clone(r.Target)
	r.Path = strings.Clone(r.Path)
	r.Query = strings.Clone(r.Query)
	r.IfNoneMatch = strings.Clone(r.IfNoneMatch)
	r.IfMatch = strings.Clone(r.IfMatch)
	r.IfRange = strings.Clone(r.IfRange)
}

// requestLineFields splits a request line on runs of SP and HTAB into
// at most three fields; n counts them, and is 4 when there are more.
func requestLineFields(line []byte) (f [3][]byte, n int) {
	for i := 0; i < len(line); {
		if line[i] == ' ' || line[i] == '\t' {
			i++
			continue
		}
		if n == len(f) {
			return f, n + 1
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		f[n] = line[i:j]
		n++
		i = j
	}
	return f, n
}

// parseRequestLine parses "METHOD target HTTP/1.x", or an HTTP/0.9
// "GET /path". The method and target stay views, the protocol becomes
// one of its constants, and the path is decoded and cleaned — a view
// too in the common case of an escape-free, already-canonical path.
func (r *Request) parseRequestLine(line []byte) error {
	if bytesHasCtl(line) {
		return ErrMalformed
	}
	f, n := requestLineFields(line)
	proto := "HTTP/0.9"
	switch n {
	case 3:
		proto = bview(f[2])
	case 2:
	default:
		return ErrMalformed
	}
	r.Method, r.Target = bview(f[0]), bview(f[1])
	if len(r.Target) > MaxTargetLen {
		return ErrTargetTooBig
	}
	switch proto {
	case "HTTP/0.9":
		r.Proto, r.Major, r.Minor = "HTTP/0.9", 0, 9
	case "HTTP/1.0":
		r.Proto, r.Major, r.Minor = "HTTP/1.0", 1, 0
	case "HTTP/1.1":
		r.Proto, r.Major, r.Minor = "HTTP/1.1", 1, 1
	default:
		return ErrUnsupported
	}
	target := r.Target
	if q := strings.IndexByte(target, '?'); q >= 0 {
		r.Query = target[q+1:]
		target = target[:q]
	}
	if pathIsCanonical(target) {
		// No escapes, no "//", no "." or ".." segments: CleanPath would
		// return the path unchanged, so the view is the decoded path.
		r.Path = target
		return nil
	}
	decoded, err := unescapePath(target)
	if err != nil {
		return ErrMalformed
	}
	for i := 0; i < len(decoded); i++ {
		if decoded[i] < 0x20 || decoded[i] == 0x7f {
			// Control bytes (notably NUL, CR, LF via %-escapes) have no
			// business in a path and would poison logs and headers.
			return ErrMalformed
		}
	}
	r.Path = CleanPath(decoded)
	return nil
}

// pathIsCanonical reports whether CleanPath(unescapePath(p)) == p
// by inspection: a rooted path with no %-escapes, no empty segments,
// and no segment starting with "." (the "/." check covers "/./",
// "/../", and the trailing forms).
func pathIsCanonical(p string) bool {
	if len(p) == 0 || p[0] != '/' {
		return false
	}
	if strings.IndexByte(p, '%') >= 0 {
		return false
	}
	if strings.Contains(p, "//") || strings.Contains(p, "/.") {
		return false
	}
	return true
}

// applyDefaults derives persistence and the conditional and range
// fields in one pass over the fields.
func (r *Request) applyDefaults() {
	r.KeepAlive = r.keepAlive(r.Major, r.Minor)
	r.EachHeader(func(name, value string) {
		switch name {
		case "if-modified-since":
			r.IfModifiedSince, _ = ParseHTTPTime(value)
		case "if-unmodified-since":
			r.IfUnmodifiedSince, _ = ParseHTTPTime(value)
		case "if-none-match":
			r.IfNoneMatch = value
		case "if-match":
			r.IfMatch = value
		case "if-range":
			r.IfRange = value
		case "range":
			r.Range = ParseRange(value)
		}
	})
}

// Host returns the Host header (empty for HTTP/1.0 requests without one).
func (r *Request) Host() string {
	v, _ := r.Header("host")
	return v
}

// WireSize estimates the on-the-wire size of a minimal request for this
// target — used by the simulator's workload generator.
func WireSize(method, target string) int {
	return len(method) + 1 + len(target) + len(" HTTP/1.0\r\n") +
		len("Host: client.example.com\r\nUser-Agent: flashclient/1.0\r\n\r\n")
}

// unescapePath decodes %xx escapes.
func unescapePath(s string) (string, error) {
	if !strings.ContainsRune(s, '%') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", ErrMalformed
		}
		hi, err1 := unhex(s[i+1])
		lo, err2 := unhex(s[i+2])
		if err1 != nil || err2 != nil {
			return "", ErrMalformed
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func unhex(c byte) (byte, error) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', nil
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, nil
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, nil
	}
	return 0, ErrMalformed
}

// CleanPath normalizes a request path: collapses duplicate slashes,
// resolves "." and ".." segments (refusing to escape the root), and
// guarantees a leading slash. It is the defense against directory
// traversal.
func CleanPath(p string) string {
	if p == "" {
		return "/"
	}
	segs := strings.Split(p, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		switch s {
		case "", ".":
			// skip
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, s)
		}
	}
	cleaned := "/" + strings.Join(out, "/")
	if strings.HasSuffix(p, "/") && cleaned != "/" {
		cleaned += "/"
	}
	return cleaned
}

// ParseHTTPTime parses the three date formats HTTP allows.
func ParseHTTPTime(s string) (time.Time, error) {
	for _, layout := range []string{
		time.RFC1123,                     // Sun, 06 Nov 1994 08:49:37 GMT
		"Monday, 02-Jan-06 15:04:05 MST", // RFC 850
		time.ANSIC,                       // Sun Nov  6 08:49:37 1994
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("httpmsg: unparseable time %q", s)
}

// httpDate is IMF-fixdate (RFC 9110 §5.6.7), the one date form an
// HTTP/1.1 sender generates: RFC 1123 with the zone spelled "GMT".
const httpDate = "Mon, 02 Jan 2006 15:04:05 GMT"

// FormatHTTPTime formats t as an IMF-fixdate.
func FormatHTTPTime(t time.Time) string {
	return t.UTC().Format(httpDate)
}

// AppendHTTPTime appends t as an IMF-fixdate.
func AppendHTTPTime(dst []byte, t time.Time) []byte {
	return t.UTC().AppendFormat(dst, httpDate)
}

// ParseContentLength parses a Content-Length header value: digits only
// (RFC 9110 §8.6), so a sign is as malformed as a letter.
func ParseContentLength(v string) (int64, error) {
	n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 63)
	if err != nil {
		return 0, ErrMalformed
	}
	return int64(n), nil
}
