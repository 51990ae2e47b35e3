package httpmsg

import (
	"bufio"
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// parseResponse parses a private copy of raw (ParseBytes lower-cases
// field names in place) into a fresh Response.
func parseResponse(raw []byte) (*Response, error) {
	r := new(Response)
	if err := r.ParseBytes(bytes.Clone(raw)); err != nil {
		return nil, err
	}
	return r, nil
}

func TestParseResponseBasic(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\n" +
		"Date: Tue, 01 Jun 1999 00:00:00 GMT\r\n" +
		"Content-Type: text/html\r\n" +
		"Content-Length: 42\r\n" +
		"\r\n")
	r, err := parseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r.Proto != "HTTP/1.1" || r.Major != 1 || r.Minor != 1 {
		t.Fatalf("proto = %q %d.%d", r.Proto, r.Major, r.Minor)
	}
	if r.Status != 200 || r.Reason != "OK" {
		t.Fatalf("status = %d %q", r.Status, r.Reason)
	}
	if v, ok := r.Header("content-length"); !ok || v != "42" {
		t.Fatalf("content-length = %q, %v", v, ok)
	}
	if v, ok := r.Header("content-type"); !ok || v != "text/html" {
		t.Fatalf("content-type = %q, %v", v, ok)
	}
	if r.NumHeaders() != 3 {
		t.Fatalf("NumHeaders = %d", r.NumHeaders())
	}
}

func TestParseResponseStatusLines(t *testing.T) {
	cases := []struct {
		name   string
		head   string
		err    error
		status int
		reason string
	}{
		{"no reason", "HTTP/1.1 204\r\n\r\n", nil, 204, ""},
		{"no reason trailing space", "HTTP/1.1 204 \r\n\r\n", nil, 204, ""},
		{"reason with spaces", "HTTP/1.0 404 Not Found\r\n\r\n", nil, 404, "Not Found"},
		{"three digit floor", "HTTP/1.1 100 Continue\r\n\r\n", nil, 100, "Continue"},
		{"http 0.9", "200 OK\r\n\r\n", ErrUnsupported, 0, ""},
		{"http 2", "HTTP/2.0 200 OK\r\n\r\n", ErrUnsupported, 0, ""},
		{"lowercase proto", "http/1.1 200 OK\r\n\r\n", ErrUnsupported, 0, ""},
		{"two digit code", "HTTP/1.1 99 Low\r\n\r\n", ErrMalformed, 0, ""},
		{"four digit code", "HTTP/1.1 2000 Big\r\n\r\n", ErrMalformed, 0, ""},
		{"code below 100", "HTTP/1.1 099 Pad\r\n\r\n", ErrMalformed, 0, ""},
		{"non numeric code", "HTTP/1.1 2x0 Huh\r\n\r\n", ErrMalformed, 0, ""},
		{"no space after proto", "HTTP/1.1\r\n\r\n", ErrMalformed, 0, ""},
		{"ctl in reason", "HTTP/1.1 200 O\x01K\r\n\r\n", ErrMalformed, 0, ""},
		{"non ascii reason", "HTTP/1.1 200 Très Bien\r\n\r\n", ErrMalformed, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parseResponse([]byte(tc.head))
			if err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if err != nil {
				return
			}
			if r.Status != tc.status || r.Reason != tc.reason {
				t.Fatalf("parsed %d %q, want %d %q", r.Status, r.Reason, tc.status, tc.reason)
			}
		})
	}
}

func TestParseResponseErrors(t *testing.T) {
	cases := []struct {
		name string
		head string
		err  error
	}{
		{"incomplete", "HTTP/1.1 200 OK\r\nContent-Le", ErrIncomplete},
		{"empty", "", ErrIncomplete},
		{"no colon", "HTTP/1.1 200 OK\r\nNoColonHere\r\n\r\n", ErrMalformed},
		{"empty key", "HTTP/1.1 200 OK\r\n: v\r\n\r\n", ErrMalformed},
		{"bare CR in value", "HTTP/1.1 200 OK\r\nX: a\rb\r\n\r\n", ErrMalformed},
		{"NUL in value", "HTTP/1.1 200 OK\r\nX: a\x00b\r\n\r\n", ErrMalformed},
		{"oversized head", "HTTP/1.1 200 OK\r\nX: " + strings.Repeat("a", MaxHeaderLen), ErrHeaderTooBig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseResponse([]byte(tc.head)); err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			var zc Response
			if err := zc.ParseBytes([]byte(tc.head)); err != tc.err {
				t.Fatalf("zero-copy err = %v, want %v", err, tc.err)
			}
		})
	}
}

func TestParseResponseDuplicateHeadersJoin(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\nSet-Thing: a\r\nset-thing: b\r\n\r\n")
	r, err := parseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Header("set-thing"); v != "a, b" {
		t.Fatalf("joined value = %q", v)
	}
	if r.NumHeaders() != 1 {
		t.Fatalf("NumHeaders = %d, want the repeated name stored once", r.NumHeaders())
	}
}

func TestParseResponseInlineSpill(t *testing.T) {
	var b strings.Builder
	b.WriteString("HTTP/1.1 200 OK\r\n")
	for i := 0; i < maxInlineFields+2; i++ {
		b.WriteString("X-H")
		b.WriteByte(byte('a' + i))
		b.WriteString(": v\r\n")
	}
	b.WriteString("\r\n")
	var zc Response
	if err := zc.ParseBytes([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	if zc.NumHeaders() != maxInlineFields+2 {
		t.Fatalf("NumHeaders = %d, want %d", zc.NumHeaders(), maxInlineFields+2)
	}
	if v, ok := zc.Header("x-ha"); !ok || v != "v" {
		t.Fatalf("x-ha = %q, %v", v, ok)
	}
}

func TestParseResponseReuse(t *testing.T) {
	var zc Response
	if err := zc.ParseBytes([]byte("HTTP/1.1 200 OK\r\nETag: \"a\"\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	zc.Reset()
	if err := zc.ParseBytes([]byte("HTTP/1.0 304 Not Modified\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if zc.Status != 304 || zc.Proto != "HTTP/1.0" {
		t.Fatalf("reused parse = %d %q", zc.Status, zc.Proto)
	}
	if _, ok := zc.Header("etag"); ok {
		t.Fatal("header residue from the previous parse")
	}
}

func TestResponseKeepAlive(t *testing.T) {
	cases := []struct {
		head string
		want bool
	}{
		{"HTTP/1.1 200 OK\r\n\r\n", true},
		{"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n", false},
		{"HTTP/1.1 200 OK\r\nConnection: Close\r\n\r\n", false},
		{"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\n", true},
		{"HTTP/1.0 200 OK\r\n\r\n", false},
		{"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\n\r\n", true},
		{"HTTP/1.0 200 OK\r\nConnection: close\r\n\r\n", false},
	}
	for _, tc := range cases {
		r, err := parseResponse([]byte(tc.head))
		if err != nil {
			t.Fatalf("%q: %v", tc.head, err)
		}
		if got := r.KeepAlive(); got != tc.want {
			t.Errorf("KeepAlive(%q) = %v, want %v", tc.head, got, tc.want)
		}
	}
}

func TestResponseBodyFraming(t *testing.T) {
	cases := []struct {
		name   string
		method string
		head   string
		kind   BodyKind
		n      int64
		err    error
	}{
		{"content length", "GET", "HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n", BodyLength, 7, nil},
		{"content length zero", "GET", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", BodyNone, 0, nil},
		{"chunked", "GET", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", BodyChunked, -1, nil},
		{"chunked case", "GET", "HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\n\r\n", BodyChunked, -1, nil},
		{"until close", "GET", "HTTP/1.1 200 OK\r\n\r\n", BodyUntilClose, -1, nil},
		{"head never has body", "HEAD", "HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n", BodyNone, 0, nil},
		{"204 never has body", "GET", "HTTP/1.1 204 No Content\r\nContent-Length: 7\r\n\r\n", BodyNone, 0, nil},
		{"304 never has body", "GET", "HTTP/1.1 304 Not Modified\r\nContent-Length: 7\r\n\r\n", BodyNone, 0, nil},
		{"1xx never has body", "GET", "HTTP/1.1 100 Continue\r\n\r\n", BodyNone, 0, nil},
		{"te and cl", "GET", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 7\r\n\r\n", BodyNone, 0, ErrAmbiguousFraming},
		{"te gzip", "GET", "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", BodyNone, 0, ErrBadTransferEncoding},
		{"bad cl", "GET", "HTTP/1.1 200 OK\r\nContent-Length: seven\r\n\r\n", BodyNone, 0, ErrMalformed},
		{"negative cl", "GET", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", BodyNone, 0, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parseResponse([]byte(tc.head))
			if err != nil {
				t.Fatal(err)
			}
			kind, n, ferr := r.BodyFraming(tc.method)
			if kind != tc.kind || n != tc.n || ferr != tc.err {
				t.Fatalf("BodyFraming = %v, %d, %v; want %v, %d, %v",
					kind, n, ferr, tc.kind, tc.n, tc.err)
			}
		})
	}
}

// compareResponses asserts two parses produced the same message:
// proto, status, reason, and the full header set.
func compareResponses(t *testing.T, a, b *Response, label string) {
	t.Helper()
	if a.Proto != b.Proto || a.Major != b.Major || a.Minor != b.Minor ||
		a.Status != b.Status || a.Reason != b.Reason {
		t.Fatalf("%s: status lines differ: %q %d %q vs %q %d %q",
			label, a.Proto, a.Status, a.Reason, b.Proto, b.Status, b.Reason)
	}
	if a.NumHeaders() != b.NumHeaders() {
		t.Fatalf("%s: header counts differ: %d vs %d", label, a.NumHeaders(), b.NumHeaders())
	}
	ah := map[string]string{}
	a.EachHeader(func(k, v string) { ah[k] = v })
	bh := map[string]string{}
	b.EachHeader(func(k, v string) { bh[k] = v })
	if !reflect.DeepEqual(ah, bh) {
		t.Fatalf("%s: headers differ: %v vs %v", label, ah, bh)
	}
}

func FuzzParseResponse(f *testing.F) {
	seeds := []string{
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 10\r\nConnection: keep-alive\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nETag: \"abc\"\r\nDate: Tue, 01 Jun 1999 00:00:00 GMT\r\n\r\n",
		"HTTP/1.1 204\r\n\r\n",
		"HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-99/1234\r\nContent-Length: 100\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n",
		"HTTP/1.1 502 Bad Gateway\r\nConnection: close\r\n\r\n",
		"HTTP/1.1 200 OK\r\nCache-Control: max-age=60, s-maxage=30\r\nExpires: Tue, 01 Jun 1999 00:01:00 GMT\r\n\r\n",
		"HTTP/1.1 200 OK\r\nSet-Thing: a\r\nSet-Thing: b\r\n\r\n",
		"HTTP/1.1 200 OK\nX: bare-lf\n\n",
		// Split/odd header shapes.
		"HTTP/1.1 200 OK\r\nX:\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX:   padded   \r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-A: a\r\n X-B: b\r\n\r\n", // obs-fold
		// Malformed shapes.
		"HTTP/2.0 200 OK\r\n\r\n",
		"200 OK\r\n\r\n",
		"HTTP/1.1 20 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nNoColon\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: a\rb\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX: a\x00b\r\n\r\n",
		"HTTP/1.1 200",
		"\x00\x01\x02\r\n\r\n",
		strings.Repeat("A", 9000) + "\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := parseResponse(data)

		// Determinism: parsing the same bytes twice agrees.
		again, err2 := parseResponse(data)
		if err != err2 || (err == nil && !reflect.DeepEqual(resp, again)) {
			t.Fatalf("non-deterministic parse: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}

		// Reset and re-parse a mutated head into the SAME Response; the
		// result must equal a fresh parse of the mutated head, with no
		// residue from the first parse.
		reused := again
		data2 := bytes.ReplaceAll(data, []byte("a"), []byte("z"))
		fresh, ferr := parseResponse(data2)
		reused.Reset()
		if rerr := reused.ParseBytes(data2); rerr != ferr {
			t.Fatalf("reused parse error diverges: fresh=%v reused=%v", ferr, rerr)
		}
		if ferr == nil {
			compareResponses(t, fresh, reused, "reused after Reset vs fresh")
		}

		if hresp, herr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil); herr == nil {
			if resp.Proto != hresp.Proto || resp.Status != hresp.StatusCode {
				t.Fatalf("status line %q %d, net/http reads %q %d",
					resp.Proto, resp.Status, hresp.Proto, hresp.StatusCode)
			}
			compareWithOracle(t, &resp.fieldBlock, hresp.Header)
		}

		// Accepted response ⇒ a complete header block exists.
		if HeaderEnd(data) <= 0 {
			t.Fatal("accepted response without a complete head")
		}
		if resp.Status < 100 || resp.Status > 999 {
			t.Fatalf("status %d out of range", resp.Status)
		}

		// CRLF-injection round-trip: no parsed field may smuggle a line
		// break or NUL toward the proxy's own clients.
		if strings.ContainsAny(resp.Proto, "\r\n\x00") ||
			strings.ContainsAny(resp.Reason, "\r\n\x00") {
			t.Fatalf("status line fields contain CR/LF/NUL: %q %q", resp.Proto, resp.Reason)
		}
		resp.EachHeader(func(k, v string) {
			if strings.ContainsAny(k, "\r\n\x00") || strings.ContainsAny(v, "\r\n\x00") {
				t.Fatalf("header %q: %q contains CR/LF/NUL", k, v)
			}
			if k != strings.ToLower(k) {
				t.Fatalf("header key %q not lower-cased", k)
			}
		})

		// Framing never both succeeds and returns garbage.
		for _, m := range []string{"GET", "HEAD"} {
			kind, n, ferr := resp.BodyFraming(m)
			if ferr != nil {
				continue
			}
			switch kind {
			case BodyLength:
				if n <= 0 {
					t.Fatalf("BodyLength with n=%d", n)
				}
			case BodyChunked, BodyUntilClose:
				if n != -1 {
					t.Fatalf("%v with n=%d", kind, n)
				}
			case BodyNone:
				if n != 0 {
					t.Fatalf("BodyNone with n=%d", n)
				}
			}
		}
	})
}
