package httpmsg

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseRange(t *testing.T) {
	cases := []struct {
		in   string
		want *ByteRange
	}{
		{"bytes=0-99", &ByteRange{Start: 0, End: 99}},
		{"bytes=5-", &ByteRange{Start: 5, End: -1}},
		{"bytes=-5", &ByteRange{Start: -1, End: 5, Suffix: true}},
		{"bytes=-0", &ByteRange{Start: -1, End: 0, Suffix: true}},
		{" bytes = 0-1", nil}, // space inside the unit
		{"bytes= 0-1", &ByteRange{Start: 0, End: 1}},
		{"BYTES=0-1", &ByteRange{Start: 0, End: 1}},
		{"bytes=0-0,5-6", nil}, // multi-range unsupported
		{"bytes=5-4", nil},     // inverted
		{"bytes=", nil},
		{"bytes=-", nil},
		{"bytes=a-b", nil},
		{"potato=0-5", nil},
		{"bytes=−5", nil}, // unicode minus
		{"", nil},
	}
	for _, tc := range cases {
		got := ParseRange(tc.in)
		switch {
		case got == nil && tc.want == nil:
		case got == nil || tc.want == nil || *got != *tc.want:
			t.Errorf("ParseRange(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestByteRangeResolve(t *testing.T) {
	cases := []struct {
		r      ByteRange
		size   int64
		off, n int64
		ok     bool
	}{
		{ByteRange{Start: 0, End: 99}, 1000, 0, 100, true},
		{ByteRange{Start: 0, End: 99}, 50, 0, 50, true},  // end clamped
		{ByteRange{Start: 0, End: 0}, 13, 0, 1, true},    // first byte
		{ByteRange{Start: 5, End: -1}, 13, 5, 8, true},   // open-ended
		{ByteRange{Start: 13, End: -1}, 13, 0, 0, false}, // start at size
		{ByteRange{Start: 100, End: 200}, 13, 0, 0, false},
		{ByteRange{Start: -1, End: 5, Suffix: true}, 13, 8, 5, true},
		{ByteRange{Start: -1, End: 99, Suffix: true}, 13, 0, 13, true}, // suffix clamped
		{ByteRange{Start: -1, End: 0, Suffix: true}, 13, 0, 0, false},  // zero suffix
		{ByteRange{Start: 0, End: -1}, 0, 0, 0, false},                 // empty file
	}
	for _, tc := range cases {
		off, n, ok := tc.r.Resolve(tc.size)
		if off != tc.off || n != tc.n || ok != tc.ok {
			t.Errorf("%+v.Resolve(%d) = (%d, %d, %v), want (%d, %d, %v)",
				tc.r, tc.size, off, n, ok, tc.off, tc.n, tc.ok)
		}
	}
}

func TestETagMatch(t *testing.T) {
	etag := MakeETag(1234, 5678)
	if !strings.HasPrefix(etag, "\"") || !strings.HasSuffix(etag, "\"") {
		t.Fatalf("MakeETag not quoted: %q", etag)
	}
	cases := []struct {
		header string
		want   bool
	}{
		{etag, true},
		{"*", true},
		{"W/" + etag, true}, // weak comparison
		{"\"other\", " + etag, true},
		{" " + etag + " ", true},
		{"\"other\"", false},
		{"", false},
	}
	for _, tc := range cases {
		if got := ETagMatch(tc.header, etag); got != tc.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", tc.header, etag, got, tc.want)
		}
	}
}

func TestMatchIfMatch(t *testing.T) {
	etag := MakeETag(1234, 5678)
	for _, tc := range []struct {
		header, etag string
		want         bool
	}{
		{etag, etag, true},
		{`"other", ` + etag, etag, true},
		{" " + etag + " ", etag, true},
		{"*", etag, true},
		{"*", "", true}, // any current entity, tagged or not
		{"W/" + etag, etag, false},
		{etag, "W/" + etag, false}, // a weak entity tag never matches strongly
		{`"other"`, etag, false},
		{"", "", false},
		{",", "", false},
	} {
		if got := MatchIfMatch(tc.header, tc.etag); got != tc.want {
			t.Errorf("MatchIfMatch(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}

func TestMatchIfRange(t *testing.T) {
	etag := MakeETag(13, 1000)
	lm := time.Unix(1000, 0)
	cases := []struct {
		val  string
		want bool
	}{
		{etag, true},
		{"\"nope\"", false},
		{"W/" + etag, false}, // weak never matches strongly
		{FormatHTTPTime(lm), true},
		{FormatHTTPTime(lm.Add(time.Hour)), false},
		{"not a date", false},
	}
	for _, tc := range cases {
		if got := MatchIfRange(tc.val, etag, 1000); got != tc.want {
			t.Errorf("MatchIfRange(%q) = %v, want %v", tc.val, got, tc.want)
		}
	}
}

func TestAppendChunk(t *testing.T) {
	out := AppendChunk(nil, []byte("hello"))
	if string(out) != "5\r\nhello\r\n" {
		t.Fatalf("AppendChunk = %q", out)
	}
	out = AppendChunk(out, nil) // empty data appends nothing
	if string(out) != "5\r\nhello\r\n" {
		t.Fatalf("AppendChunk with empty data = %q", out)
	}
	big := make([]byte, 0x1a)
	out = AppendChunk(nil, big)
	if !strings.HasPrefix(string(out), "1a\r\n") {
		t.Fatalf("hex size wrong: %q", out[:8])
	}
}

func TestBuildHeaderChunkedAndRange(t *testing.T) {
	h := string(BuildHeader(ResponseMeta{Status: 200, Chunked: true, ContentLength: -1}, false))
	if !strings.Contains(h, "Transfer-Encoding: chunked\r\n") {
		t.Fatalf("missing Transfer-Encoding: %q", h)
	}
	if strings.Contains(h, "Content-Length:") {
		t.Fatalf("chunked header carries Content-Length: %q", h)
	}

	h = string(BuildHeader(ResponseMeta{
		Status: 206, ContentLength: 100,
		ContentRange: "bytes 0-99/1234", ETag: "\"abc\"",
	}, true))
	if !strings.Contains(h, "Content-Range: bytes 0-99/1234\r\n") {
		t.Fatalf("missing Content-Range: %q", h)
	}
	if !strings.Contains(h, "ETag: \"abc\"\r\n") {
		t.Fatalf("missing ETag: %q", h)
	}
	if !strings.Contains(h, " 206 Partial Content\r\n") {
		t.Fatalf("missing 206 status: %q", h)
	}
	if len(h)%HeaderAlign != 0 {
		t.Fatalf("aligned 206 header length %d not a multiple of %d", len(h), HeaderAlign)
	}
}

func TestParseRequestValidators(t *testing.T) {
	req, err := parseRequest([]byte("GET /f HTTP/1.1\r\nHost: h\r\n" +
		"Range: bytes=1-2\r\nIf-None-Match: \"x\"\r\nIf-Range: \"y\"\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Range == nil || req.Range.Start != 1 || req.Range.End != 2 {
		t.Fatalf("Range = %+v", req.Range)
	}
	if req.IfNoneMatch != "\"x\"" || req.IfRange != "\"y\"" {
		t.Fatalf("validators = %q / %q", req.IfNoneMatch, req.IfRange)
	}

	// Malformed Range is ignored, not an error.
	req, err = parseRequest([]byte("GET /f HTTP/1.0\r\nRange: bytes=9-3\r\n\r\n"))
	if err != nil || req.Range != nil {
		t.Fatalf("malformed range: req.Range=%+v err=%v", req.Range, err)
	}
}

func TestParseRequestRejectsSmuggling(t *testing.T) {
	bad := []string{
		"GET /%00 HTTP/1.0\r\n\r\n",            // NUL via escape
		"GET /%0d%0aX: y HTTP/1.0\r\n\r\n",     // CRLF via escape
		"GET / HTTP/1.1\r\nHost: a\rb\r\n\r\n", // bare CR in header
		"GE\x00T / HTTP/1.0\r\n\r\n",           // NUL in request line
	}
	for _, s := range bad {
		if _, err := parseRequest([]byte(s)); err == nil {
			t.Errorf("parseRequest(%q) accepted a smuggling vector", s)
		}
	}
}

// TestFieldLineRules pins the one field-line parser's rules (RFC 9112
// §5, RFC 9110 §5.6.2–5.6.3) for both message kinds: a name is a
// token, OWS is SP and HTAB only, an obs-fold line is malformed, and
// whitespace before a colon is malformed in a request but removed in a
// response.
func TestFieldLineRules(t *testing.T) {
	for _, tc := range []struct {
		name, fields string
		reqErr       error // the request parse's error
		respErr      error // the response parse's error
		key, value   string
	}{
		{"token name", "X-A.b~1: v", nil, nil, "x-a.b~1", "v"},
		{"name with @", "X@Y: v", ErrMalformed, ErrMalformed, "", ""},
		{"non-ASCII name", "Ünï: v", ErrMalformed, ErrMalformed, "", ""},
		{"OWS is SP and HTAB", "X:\t v \t", nil, nil, "x", "v"},
		{"NBSP is not OWS", "X: \u00a0v\u00a0", nil, nil, "x", "\u00a0v\u00a0"},
		{"whitespace before colon", "Content-Length : 5", ErrMalformed, nil, "content-length", "5"},
		{"tab before colon", "X\t: v", ErrMalformed, nil, "x", "v"},
		{"obs-fold", "X: a\r\n b: c", ErrMalformed, ErrMalformed, "", ""},
		{"obs-fold with tab", "X: a\r\n\tb", ErrMalformed, ErrMalformed, "", ""},
		{"repeated name joined", "X: a\r\nx: b", nil, nil, "x", "a, b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := parseRequest([]byte("GET / HTTP/1.1\r\n" + tc.fields + "\r\n\r\n"))
			if err != tc.reqErr {
				t.Fatalf("request: err = %v, want %v", err, tc.reqErr)
			}
			if err == nil {
				if v, ok := req.Header(tc.key); !ok || v != tc.value {
					t.Fatalf("request: %q = %q (present=%v), want %q", tc.key, v, ok, tc.value)
				}
			}
			resp, err := parseResponse([]byte("HTTP/1.1 200 OK\r\n" + tc.fields + "\r\n\r\n"))
			if err != tc.respErr {
				t.Fatalf("response: err = %v, want %v", err, tc.respErr)
			}
			if err == nil {
				if v, ok := resp.Header(tc.key); !ok || v != tc.value {
					t.Fatalf("response: %q = %q (present=%v), want %q", tc.key, v, ok, tc.value)
				}
			}
		})
	}
}

// TestFieldLineLimit: a head may carry maxFieldLines field lines, and
// one more is too big — however few distinct names they spell.
func TestFieldLineLimit(t *testing.T) {
	head := func(lines int) []byte {
		var b strings.Builder
		b.WriteString("GET / HTTP/1.1\r\n")
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "X-%d: v\r\n", i%3)
		}
		return []byte(b.String() + "\r\n")
	}
	r, err := parseRequest(head(maxFieldLines))
	if err != nil || r.NumHeaders() != 3 {
		t.Fatalf("%d lines: err %v, %d fields", maxFieldLines, err, r.NumHeaders())
	}
	if _, err := parseRequest(head(maxFieldLines + 1)); err != ErrHeaderTooBig {
		t.Fatalf("%d lines: err = %v, want ErrHeaderTooBig", maxFieldLines+1, err)
	}
}

// TestFieldOverflowRecycled: fields past the inline array land in the
// overflow slice, which Reset empties but keeps.
func TestFieldOverflowRecycled(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < maxInlineFields+4; i++ {
		fmt.Fprintf(&b, "X-%d: %d\r\n", i, i)
	}
	raw := []byte(b.String() + "\r\n")
	var r Request
	buf := bytes.Clone(raw)
	if err := r.ParseBytes(buf); err != nil {
		t.Fatal(err)
	}
	if r.NumHeaders() != maxInlineFields+4 {
		t.Fatalf("NumHeaders = %d", r.NumHeaders())
	}
	if v, ok := r.Header("x-19"); !ok || v != "19" {
		t.Fatalf("x-19 = %q, %v", v, ok)
	}
	if n := testing.AllocsPerRun(100, func() {
		copy(buf, raw)
		r.Reset()
		if err := r.ParseBytes(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("recycled parse of %d fields: %.1f allocs, want 0", maxInlineFields+4, n)
	}
}

// TestRequestEndAllocs: probing a partial head for its end — done on
// every read that leaves one incomplete — allocates nothing.
func TestRequestEndAllocs(t *testing.T) {
	partial := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n")
	if n := testing.AllocsPerRun(100, func() {
		if RequestEnd(partial) >= 0 {
			t.Fatal("partial head reported complete")
		}
	}); n != 0 {
		t.Fatalf("RequestEnd on a partial head: %.1f allocs, want 0", n)
	}
}

// TestHeaderEndFirstBlankLine: the head ends at its first blank line,
// whichever line-ending style spells it, so a bare-LF head followed by
// a CRLF one is two heads — the line parser's view, and net/http's.
func TestHeaderEndFirstBlankLine(t *testing.T) {
	first := "GET / HTTP/1.1\nHost: h\n\n"
	buf := []byte(first + "GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
	if got := RequestEnd(buf); got != len(first) {
		t.Fatalf("RequestEnd = %d, want %d", got, len(first))
	}
	head := "HTTP/1.1 200 OK\r\nX: y\n\r\n"
	if got := HeaderEnd([]byte(head + "body")); got != len(head) {
		t.Fatalf("HeaderEnd over LF then CRLF = %d, want %d", got, len(head))
	}
}

// TestContentLengthDigitsOnly: Content-Length is 1*DIGIT (RFC 9110
// §8.6); a sign or a repeated, joined value is malformed framing.
func TestContentLengthDigitsOnly(t *testing.T) {
	for _, v := range []string{"+5", "-5", "5, 5", "0x5", ""} {
		r, err := parseRequest([]byte("POST / HTTP/1.1\r\nContent-Length: " + v + "\r\n\r\n"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.BodyFraming(); err != ErrMalformed {
			t.Errorf("Content-Length %q: framing err = %v, want ErrMalformed", v, err)
		}
	}
}

// TestParsedRequestOutlivesBuffer: the protocol is a constant, and
// MaterializeHeaders copies every other view, so rewriting the parse
// buffer afterwards changes nothing the Request reports.
func TestParsedRequestOutlivesBuffer(t *testing.T) {
	buf := []byte("GET /a?q HTTP/1.1\r\nHost: h\r\nIf-Match: \"x\"\r\nX: y\r\nx: z\r\n\r\n")
	var r Request
	if err := r.ParseBytes(buf); err != nil {
		t.Fatal(err)
	}
	r.MaterializeHeaders()
	for i := range buf {
		buf[i] = '#'
	}
	if r.Proto != "HTTP/1.1" || r.Method != "GET" || r.Target != "/a?q" || r.IfMatch != `"x"` {
		t.Fatalf("request line views changed: %q %q %q %q", r.Method, r.Target, r.Proto, r.IfMatch)
	}
	if v, _ := r.Header("x"); v != "y, z" || r.Headers["host"] != "h" || len(r.Headers) != 3 {
		t.Fatalf("fields changed: x=%q map=%v", v, r.Headers)
	}
}

func TestParseRequestPreconditions(t *testing.T) {
	req, err := parseRequest([]byte("GET /f HTTP/1.1\r\nHost: h\r\nIf-Match: \"a\", \"b\"\r\n" +
		"If-Unmodified-Since: Sun, 06 Nov 1994 08:49:37 GMT\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.IfMatch != `"a", "b"` {
		t.Fatalf("IfMatch = %q", req.IfMatch)
	}
	if want := time.Date(1994, 11, 6, 8, 49, 37, 0, time.UTC); !req.IfUnmodifiedSince.Equal(want) {
		t.Fatalf("IfUnmodifiedSince = %v, want %v", req.IfUnmodifiedSince, want)
	}
}
