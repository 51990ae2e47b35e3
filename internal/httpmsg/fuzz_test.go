package httpmsg

import (
	"bufio"
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRequest feeds arbitrary byte blocks to the request parser.
// Invariants: no panics; a head both this parser and net/http's
// http.ReadRequest accept reads the same to both (the oracle); a
// reused Request parses like a fresh one; an accepted request exposes
// no CR/LF/NUL in any field that could reach a response or log line;
// and a response header built from the request round-trips as exactly
// one well-formed header block (no CRLF injection).
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		"GET / HTTP/1.0\r\n\r\n",
		"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n",
		"GET /a/b/../c%20d.txt?q=1&r=2 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
		"HEAD /x HTTP/1.1\r\nHost: h\r\nRange: bytes=0-99\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: h\r\nRange: bytes=-5\r\nIf-Range: \"abc\"\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: h\r\nIf-None-Match: \"a\", W/\"b\", *\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: h\r\nIf-Modified-Since: Sun, 06 Nov 1994 08:49:37 GMT\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: h\r\nIf-Match: \"a\"\r\nIf-Unmodified-Since: Sun, 06 Nov 1994 08:49:37 GMT\r\n\r\n",
		"GET /simple\r\n\r\n", // HTTP/0.9
		"GET / HTTP/1.1\nHost: bare-lf\n\n",
		"POST /form HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\n",
		"\r\nGET /preamble HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.1\r\nAccept: a\r\naccept: b\r\nX-Tab:\tv \t\r\n\r\n",
		// Malformed shapes.
		"NONSENSE\r\n\r\n",
		"GET / HTTP/9.9\r\n\r\n",
		"GET /%zz HTTP/1.0\r\n\r\n",
		"GET /%00 HTTP/1.0\r\n\r\n",
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"GET / HTTP/1.1\r\n: empty-key\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\rb\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding : chunked\r\n\r\n",
		"GET / HTTP/1.1\r\nAAAA: 00\n 000000000:000000\r\n\r\n", // obs-fold
		"GET /x HTTP/1.1\r\nHost: h\r\nRange: bytes=0-0,5-6\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: h\r\nRange: bytes=5-4\r\n\r\n",
		"\x00\x01\x02\r\n\r\n",
		strings.Repeat("A", 9000) + "\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseRequest(data)

		// Determinism: parsing the same bytes twice agrees.
		again, err2 := parseRequest(data)
		if err != err2 || (err == nil && !reflect.DeepEqual(req, again)) {
			t.Fatalf("non-deterministic parse: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}

		// Stale-view hazard: Reset and re-parse a mutated head into the
		// SAME Request; the result must equal a fresh parse of the
		// mutated head, with no residue from the first parse.
		reused := again
		data2 := bytes.ReplaceAll(data, []byte("a"), []byte("z"))
		fresh, ferr := parseRequest(data2)
		reused.Reset()
		if rerr := reused.ParseBytes(data2); rerr != ferr {
			t.Fatalf("reused parse error diverges: fresh=%v reused=%v", ferr, rerr)
		}
		if ferr == nil {
			compareParses(t, fresh, reused, "reused after Reset vs fresh")
		}

		if hreq, herr := http.ReadRequest(bufio.NewReader(bytes.NewReader(data))); herr == nil {
			if req.Method != hreq.Method || req.Target != hreq.RequestURI || req.Proto != hreq.Proto {
				t.Fatalf("request line %q %q %q, net/http reads %q %q %q",
					req.Method, req.Target, req.Proto, hreq.Method, hreq.RequestURI, hreq.Proto)
			}
			compareWithOracle(t, &req.fieldBlock, hreq.Header)
		}

		// Accepted request ⇒ a complete request head exists (header
		// block, or 0.9 simple request).
		if RequestEnd(data) <= 0 {
			t.Fatal("accepted request without a complete head")
		}

		// No line-break or NUL bytes in any parsed field.
		for name, v := range map[string]string{
			"Method": req.Method, "Target": req.Target, "Proto": req.Proto,
			"Path": req.Path, "Query": req.Query,
		} {
			if strings.ContainsAny(v, "\r\n\x00") {
				t.Fatalf("%s contains CR/LF/NUL: %q", name, v)
			}
		}
		req.EachHeader(func(k, v string) {
			if strings.ContainsAny(k, "\r\n\x00") || strings.ContainsAny(v, "\r\n\x00") {
				t.Fatalf("header %q: %q contains CR/LF/NUL", k, v)
			}
		})
		if !strings.HasPrefix(req.Path, "/") {
			t.Fatalf("Path %q does not start with /", req.Path)
		}
		for _, seg := range strings.Split(req.Path, "/") {
			if seg == ".." {
				t.Fatalf("Path %q escapes the root", req.Path)
			}
		}

		// Round-trip: a response built for this request is exactly one
		// well-formed header block — CRLF injection via any request
		// field would split it.
		hdr := BuildHeader(ResponseMeta{
			Status:        200,
			Proto:         req.Proto,
			ContentType:   ContentTypeFor(req.Path),
			ContentLength: 0,
			ETag:          MakeETag(1234, 5678),
			KeepAlive:     req.KeepAlive,
		}, true)
		if HeaderEnd(hdr) != len(hdr) {
			t.Fatalf("built header does not end at its terminator: %q", hdr)
		}
		if bytes.Contains(hdr[:len(hdr)-4], []byte("\r\n\r\n")) {
			t.Fatalf("premature terminator inside header: %q", hdr)
		}
		lines := strings.Split(strings.TrimSuffix(string(hdr), "\r\n\r\n"), "\r\n")
		if !strings.HasPrefix(lines[0], req.Proto+" ") && req.Proto != "HTTP/0.9" {
			t.Fatalf("status line %q does not echo proto %q", lines[0], req.Proto)
		}
		for _, ln := range lines[1:] {
			if ln == "" || strings.ContainsAny(ln, "\r\n") {
				t.Fatalf("malformed header line %q in %q", ln, hdr)
			}
			if !strings.Contains(ln, ": ") {
				t.Fatalf("header line %q lacks a separator", ln)
			}
		}
	})
}

// oracleRewrites are the fields net/http moves out of Header or
// rewrites while reading a message, so they are not compared: Host
// moves to Request.Host, and the framing fields are consumed.
var oracleRewrites = map[string]bool{"host": true, "content-length": true, "transfer-encoding": true}

// oracleMayDiffer are fields net/http may drop or synthesize while
// reading a message: it consumes "Connection: close" on a 1.1 response
// and Trailer on a chunked one, and adds "Cache-Control: no-cache" for
// a lone "Pragma: no-cache". Present on both sides, they must agree.
var oracleMayDiffer = map[string]bool{"connection": true, "trailer": true, "cache-control": true}

// compareWithOracle asserts that a parsed field block holds the fields
// net/http read from the same head: names lower-cased, a repeated
// name's values joined with ", ". A head where net/http read a name
// that is not a token is skipped: only whitespace before a colon gets
// one past this parser, in a response, where RFC 9112 §5.1 has a proxy
// remove it while net/http's client keeps it in the name (its server
// answers such a request 400).
func compareWithOracle(t *testing.T, got *fieldBlock, want http.Header) {
	t.Helper()
	oracle := map[string]string{}
	for k, vv := range want {
		for i := 0; i < len(k); i++ {
			if tokenLower[k[i]] == 0 {
				return
			}
		}
		oracle[strings.ToLower(k)] = strings.Join(vv, ", ")
	}
	for k, v := range oracle {
		gv, ok := got.Header(k)
		switch {
		case oracleRewrites[k] || (!ok && oracleMayDiffer[k]):
		case !ok || gv != v:
			t.Fatalf("field %q = %q (present=%v), net/http reads %q", k, gv, ok, v)
		}
	}
	got.EachHeader(func(k, v string) {
		if _, ok := oracle[k]; !ok && !oracleRewrites[k] && !oracleMayDiffer[k] {
			t.Fatalf("field %q = %q, which net/http does not read", k, v)
		}
	})
}

// compareParses asserts two successful parses describe the same
// request: every scalar field plus the full header set (order-free).
func compareParses(t *testing.T, want, got *Request, label string) {
	t.Helper()
	if want.Method != got.Method || want.Target != got.Target ||
		want.Path != got.Path || want.Query != got.Query ||
		want.Proto != got.Proto || want.Major != got.Major ||
		want.Minor != got.Minor || want.KeepAlive != got.KeepAlive ||
		!want.IfModifiedSince.Equal(got.IfModifiedSince) ||
		!want.IfUnmodifiedSince.Equal(got.IfUnmodifiedSince) ||
		want.IfNoneMatch != got.IfNoneMatch || want.IfMatch != got.IfMatch ||
		want.IfRange != got.IfRange {
		t.Fatalf("%s: field mismatch:\nwant %+v\ngot  %+v", label, want, got)
	}
	if (want.Range == nil) != (got.Range == nil) ||
		(want.Range != nil && *want.Range != *got.Range) {
		t.Fatalf("%s: Range mismatch: %+v vs %+v", label, want.Range, got.Range)
	}
	if want.NumHeaders() != got.NumHeaders() {
		t.Fatalf("%s: header count %d vs %d", label, want.NumHeaders(), got.NumHeaders())
	}
	want.EachHeader(func(k, v string) {
		gv, ok := got.Header(k)
		if !ok || gv != v {
			t.Fatalf("%s: header %q = %q, want %q (present=%v)", label, k, gv, v, ok)
		}
	})
}

// FuzzChunkedDecoder feeds arbitrary bytes to the incremental
// chunked-body decoder. Invariants: no panics; decoding is insensitive
// to how the input is split across calls (same body, same consumed
// count, same success/failure); the decoder never consumes past the
// body's terminator; and valid encodings produced by AppendChunk round-
// trip exactly.
func FuzzChunkedDecoder(f *testing.F) {
	seeds := []string{
		"0\r\n\r\n",
		"5\r\nhello\r\n0\r\n\r\n",
		"1\r\nX\r\n2\r\nYZ\r\n0\r\n\r\n",
		"5;ext=1\r\nhello\r\n0\r\n\r\n",
		"5\r\nhello\r\n0\r\nX-Trailer: ok\r\n\r\n",
		"a\r\n0123456789\r\n0\r\n\r\nGET / HTTP/1.1\r\n",
		"5\nhello\n0\n\n", // bare-LF framing
		"FFFFFFFFFFFFFFFF\r\n",
		"zz\r\n", "-1\r\n", "\r\n",
		"5\r\nhelloXX", // missing chunk CRLF
		"0\r\nTrailer-Without-End: 1\r\n",
		string(AppendChunk(nil, []byte(strings.Repeat("q", 300)))) + "0\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s), uint8(3))
	}

	f.Fuzz(func(t *testing.T, data []byte, stepSeed uint8) {
		step := int(stepSeed)%17 + 1

		run := func(step int) (body []byte, consumed int, done bool, err error) {
			var d ChunkedDecoder
			dst := make([]byte, 48)
			for consumed < len(data) && !d.Done() && err == nil {
				end := consumed + step
				if end > len(data) {
					end = len(data)
				}
				var nsrc, ndst int
				nsrc, ndst, _, err = d.Next(data[consumed:end], dst)
				body = append(body, dst[:ndst]...)
				consumed += nsrc
				if nsrc == 0 && ndst == 0 && err == nil && end == len(data) && !d.Done() {
					break // starved on incomplete input
				}
			}
			return body, consumed, d.Done(), err
		}

		b1, c1, d1, e1 := run(step)
		b2, c2, d2, e2 := run(len(data) + 1) // one-shot
		if (e1 == nil) != (e2 == nil) || d1 != d2 {
			t.Fatalf("split-dependent outcome: step=%d err=%v/%v done=%v/%v", step, e1, e2, d1, d2)
		}
		if e1 == nil && d1 {
			if !bytes.Equal(b1, b2) || c1 != c2 {
				t.Fatalf("split-dependent result: %d/%d bytes, consumed %d/%d", len(b1), len(b2), c1, c2)
			}
			if c1 > len(data) {
				t.Fatalf("consumed %d > input %d", c1, len(data))
			}
		}
	})
}
