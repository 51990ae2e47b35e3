package httpmsg

import (
	"bytes"
	"strings"
	"unsafe"
)

// maxInlineFields is how many distinct fields a message stores inline;
// the rest go to an overflow slice whose capacity a recycled message
// keeps across Reset.
const maxInlineFields = 16

// maxFieldLines bounds the field lines of one head (Apache's
// LimitRequestFields default). Each line is compared with the names
// before it, and a repeated name re-joins its value, so the bound keeps
// both walks short however many tiny lines fit under MaxHeaderLen.
const maxFieldLines = 100

type field struct{ name, value string }

// fieldBlock is the header section of a request or a response: the one
// field-line parser, the storage, the lookups, and the body-framing and
// persistence rules both message kinds share. Names are lower-cased IN
// PLACE inside the parse buffer, and names and values are views over
// it — valid until that buffer is modified or the message is Reset —
// except a repeated name's joined value, which the message owns.
type fieldBlock struct {
	n      int // fields in inline
	inline [maxInlineFields]field
	more   []field // fields past inline
}

// tokenLower maps every tchar (RFC 9110 §5.6.2) to its lower-case form
// and every other byte to 0, so one pass both validates and lower-cases
// a field name.
var tokenLower = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case 'A' <= c && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0:
			t[c] = byte(c)
		}
	}
	return t
}()

// parseFields parses the field lines of head from offset i up to the
// blank line that ends the section (RFC 9112 §5). A name must be a
// token, and OWS (SP or HTAB) around a value is dropped. An obs-fold
// line (one starting with SP or HTAB) is malformed. Whitespace between
// a name and its colon is malformed in a request and removed in a
// response, as §5.1 asks of a proxy. A repeated name has its values
// joined with ", " (the one case that allocates), so a second
// Content-Length fails framing instead of overriding the first.
func (b *fieldBlock) parseFields(head []byte, i int, response bool) error {
	for lines := 0; i < len(head); lines++ {
		var line []byte
		if line, i = nextLine(head, i); len(line) == 0 {
			break
		}
		if lines == maxFieldLines {
			return ErrHeaderTooBig
		}
		k := 0
		for k < len(line) && tokenLower[line[k]] != 0 {
			line[k] = tokenLower[line[k]]
			k++
		}
		rest := line[k:]
		if response {
			rest = bytes.TrimLeft(rest, " \t")
		}
		if k == 0 || len(rest) == 0 || rest[0] != ':' || bytesHasCtl(rest) {
			return ErrMalformed
		}
		name, value := bview(line[:k]), bview(bytes.Trim(rest[1:], " \t"))
		if f := b.lookup(name); f != nil {
			f.value += ", " + value
		} else if b.n < len(b.inline) {
			b.inline[b.n] = field{name, value}
			b.n++
		} else {
			b.more = append(b.more, field{name, value})
		}
	}
	return nil
}

// recycle drops every field and returns the overflow slice, emptied,
// for the next parse.
func (b *fieldBlock) recycle() []field {
	clear(b.more)
	return b.more[:0]
}

// lookup returns the field named name (lower-case), or nil.
func (b *fieldBlock) lookup(name string) *field {
	for i := range b.inline[:b.n] {
		if b.inline[i].name == name {
			return &b.inline[i]
		}
	}
	for i := range b.more {
		if b.more[i].name == name {
			return &b.more[i]
		}
	}
	return nil
}

// Header returns the value of a header field by its lower-case name;
// a repeated field's values come joined with ", ".
func (b *fieldBlock) Header(name string) (string, bool) {
	if f := b.lookup(name); f != nil {
		return f.value, true
	}
	return "", false
}

// NumHeaders returns the number of distinct header fields.
func (b *fieldBlock) NumHeaders() int { return b.n + len(b.more) }

// EachHeader visits every header field as (lower-cased name, value),
// in the order the names first appeared.
func (b *fieldBlock) EachHeader(fn func(name, value string)) {
	for _, f := range b.inline[:b.n] {
		fn(f.name, f.value)
	}
	for _, f := range b.more {
		fn(f.name, f.value)
	}
}

// own replaces every name and value view with a copy the message owns.
func (b *fieldBlock) own() {
	for _, fs := range [2][]field{b.inline[:b.n], b.more} {
		for i := range fs {
			fs[i] = field{strings.Clone(fs[i].name), strings.Clone(fs[i].value)}
		}
	}
}

// keepAlive is the persistence rule both message kinds share: HTTP/1.1
// persists unless "Connection: close", HTTP/1.0 only with
// "Connection: keep-alive", and HTTP/0.9 never.
func (b *fieldBlock) keepAlive(major, minor int) bool {
	conn, _ := b.Header("connection")
	switch {
	case major == 1 && minor >= 1:
		return !asciiContainsFold(conn, "close")
	case major == 1:
		return asciiContainsFold(conn, "keep-alive")
	}
	return false
}

// framing is the body-framing rule both message kinds share (RFC 9112
// §6.3): a lone "chunked" Transfer-Encoding, else Content-Length, else
// absent — BodyNone for a request, BodyUntilClose for a response.
// Transfer-Encoding other than "chunked" yields ErrBadTransferEncoding;
// Transfer-Encoding together with Content-Length yields
// ErrAmbiguousFraming, the classic smuggling vector, refused rather
// than resolved; an unparseable Content-Length yields ErrMalformed.
func (b *fieldBlock) framing(absent BodyKind) (BodyKind, int64, error) {
	te, hasTE := b.Header("transfer-encoding")
	cl, hasCL := b.Header("content-length")
	switch {
	case hasTE && hasCL:
		return BodyNone, 0, ErrAmbiguousFraming
	case hasTE && !strings.EqualFold(te, "chunked"):
		return BodyNone, 0, ErrBadTransferEncoding
	case hasTE:
		return BodyChunked, -1, nil
	case hasCL:
		n, err := ParseContentLength(cl)
		if err != nil || n == 0 {
			return BodyNone, 0, err
		}
		return BodyLength, n, nil
	case absent == BodyUntilClose:
		return BodyUntilClose, -1, nil
	}
	return BodyNone, 0, nil
}

// completeHead returns buf's head given its end offset (-1: not yet
// complete), or the error an incomplete head earns.
func completeHead(buf []byte, end int) ([]byte, error) {
	if end >= 0 {
		return buf[:end], nil
	}
	if len(buf) > MaxHeaderLen {
		return nil, ErrHeaderTooBig
	}
	return nil, ErrIncomplete
}

// nextLine returns the line starting at i, one trailing CR stripped,
// and the index of the following line.
func nextLine(head []byte, i int) (line []byte, next int) {
	j := bytes.IndexByte(head[i:], '\n')
	if j < 0 {
		return head[i:], len(head)
	}
	line = head[i : i+j]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, i + j + 1
}

// bview returns a string view sharing b's bytes (no copy). The result
// is valid only while b's backing array is unmodified.
func bview(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// bytesHasCtl reports whether b contains a control byte other than
// HTAB — none belongs anywhere in a message head.
func bytesHasCtl(b []byte) bool {
	for _, c := range b {
		if (c < 0x20 && c != '\t') || c == 0x7f {
			return true
		}
	}
	return false
}

// asciiContainsFold reports whether s contains sub under ASCII case
// folding. sub must already be lower-case ASCII.
func asciiContainsFold(s, sub string) bool {
	n := len(sub)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		j := 0
		for ; j < n; j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 32
			}
			if c != sub[j] {
				break
			}
		}
		if j == n {
			return true
		}
	}
	return false
}
