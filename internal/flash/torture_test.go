package flash

// The protocol torture suite: raw-socket conformance tests that replay
// byte scripts — pipelined bursts, split writes, oversized headers,
// premature closes, Range edge cases — and assert exact status and
// framing per exchange. Everything here speaks bytes, not net/http, so
// the framing itself is under test.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpmsg"
)

// rawResponse is one parsed exchange read off the wire.
type rawResponse struct {
	proto   string
	status  int
	headers map[string]string
	body    []byte
}

// readResponse parses exactly one response, consuming precisely its
// bytes (so pipelined successors stay intact in the reader). method
// selects HEAD semantics (no body regardless of Content-Length).
func readResponse(br *bufio.Reader, method string) (*rawResponse, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(strings.TrimRight(line, "\r\n"), " ", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad status in %q", line)
	}
	r := &rawResponse{proto: parts[0], status: status, headers: map[string]string{}}
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		h = strings.TrimRight(h, "\r\n")
		if h == "" {
			break
		}
		colon := strings.IndexByte(h, ':')
		if colon < 0 {
			return nil, fmt.Errorf("bad header line %q", h)
		}
		r.headers[strings.ToLower(strings.TrimSpace(h[:colon]))] = strings.TrimSpace(h[colon+1:])
	}
	if method == "HEAD" || r.status == 304 || r.status == 204 {
		return r, nil
	}
	if strings.EqualFold(r.headers["transfer-encoding"], "chunked") {
		for {
			sz, err := br.ReadString('\n')
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseInt(strings.TrimRight(sz, "\r\n"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("bad chunk size %q", sz)
			}
			if n == 0 {
				// Trailer-less terminator: one blank line.
				if _, err := br.ReadString('\n'); err != nil {
					return nil, err
				}
				return r, nil
			}
			part := make([]byte, n)
			if _, err := io.ReadFull(br, part); err != nil {
				return nil, err
			}
			r.body = append(r.body, part...)
			if _, err := br.ReadString('\n'); err != nil {
				return nil, err
			}
		}
	}
	if cl, ok := r.headers["content-length"]; ok {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad content-length %q", cl)
		}
		r.body = make([]byte, n)
		if _, err := io.ReadFull(br, r.body); err != nil {
			return nil, err
		}
		return r, nil
	}
	// Close-delimited.
	b, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	r.body = b
	return r, nil
}

// dialRaw opens a raw connection to the test server.
func dialRaw(t *testing.T, base string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// fileETag computes the entity tag the server will advertise for a
// docroot file.
func fileETag(t *testing.T, s *Server, rel string) string {
	t.Helper()
	st, err := os.Stat(filepath.Join(s.cfg.DocRoot, rel))
	if err != nil {
		t.Fatal(err)
	}
	return httpmsg.MakeETag(st.Size(), st.ModTime().Unix())
}

// exchange is one expected request/response pair in a script.
type exchange struct {
	method    string
	status    int
	body      string            // "" skips the check unless bodyExact
	bodyLen   int               // -1 skips; otherwise exact length check
	headers   map[string]string // exact-match expectations
	bodyExact bool
}

// TestTorturePipelinedMixedBurst writes ≥8 mixed requests in a single
// packet and asserts byte-exact, in-order responses on one connection.
func TestTorturePipelinedMixedBurst(t *testing.T) {
	forEachConnEngine(t, testTorturePipelinedMixedBurst)
}

func testTorturePipelinedMixedBurst(t *testing.T) {
	s, base := newTestServer(t, nil)
	etag := fileETag(t, s, "hello.txt")

	script := "" +
		"GET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n" +
		"GET /big.bin HTTP/1.1\r\nHost: t\r\nRange: bytes=0-99\r\n\r\n" +
		"GET /hello.txt HTTP/1.1\r\nHost: t\r\nIf-None-Match: " + etag + "\r\n\r\n" +
		"GET /definitely-missing HTTP/1.1\r\nHost: t\r\n\r\n" +
		"HEAD /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n" +
		"GET /hello.txt HTTP/1.1\r\nHost: t\r\nRange: bytes=-5\r\n\r\n" +
		"GET /hello.txt HTTP/1.1\r\nHost: t\r\nRange: bytes=0-0\r\n\r\n" +
		"GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

	want := []exchange{
		{method: "GET", status: 200, body: "hello, world\n", bodyExact: true, bodyLen: -1},
		{method: "GET", status: 206, body: strings.Repeat("B", 100), bodyExact: true, bodyLen: -1,
			headers: map[string]string{"content-range": "bytes 0-99/307200"}},
		{method: "GET", status: 304, bodyLen: 0,
			headers: map[string]string{"etag": etag}},
		{method: "GET", status: 404, bodyLen: -1},
		{method: "HEAD", status: 200, bodyLen: 0,
			headers: map[string]string{"content-length": "13"}},
		{method: "GET", status: 206, body: "orld\n", bodyExact: true, bodyLen: -1,
			headers: map[string]string{"content-range": "bytes 8-12/13"}},
		{method: "GET", status: 206, body: "h", bodyExact: true, bodyLen: -1,
			headers: map[string]string{"content-range": "bytes 0-0/13"}},
		{method: "GET", status: 200, body: "hello, world\n", bodyExact: true, bodyLen: -1,
			headers: map[string]string{"connection": "close"}},
	}

	conn := dialRaw(t, base)
	if _, err := conn.Write([]byte(script)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i, w := range want {
		resp, err := readResponse(br, w.method)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		checkExchange(t, i, resp, w)
	}
	// The burst ended with Connection: close — the server must shut the
	// stream with no trailing bytes.
	if extra, _ := io.ReadAll(br); len(extra) != 0 {
		t.Fatalf("trailing bytes after final close-delimited response: %q", extra)
	}
	if st := s.Stats(); st.Accepted != 1 {
		t.Fatalf("Accepted = %d, want 1 (entire burst on one connection)", st.Accepted)
	}
}

func checkExchange(t *testing.T, i int, resp *rawResponse, w exchange) {
	t.Helper()
	if resp.status != w.status {
		t.Fatalf("exchange %d: status = %d, want %d", i, resp.status, w.status)
	}
	if w.bodyExact && string(resp.body) != w.body {
		t.Fatalf("exchange %d: body = %q, want %q", i, resp.body, w.body)
	}
	if w.bodyLen >= 0 && len(resp.body) != w.bodyLen {
		t.Fatalf("exchange %d: body length = %d, want %d", i, len(resp.body), w.bodyLen)
	}
	for k, v := range w.headers {
		if got := resp.headers[k]; got != v {
			t.Fatalf("exchange %d: header %s = %q, want %q", i, k, got, v)
		}
	}
}

// TestTortureSplitWrites feeds requests through the socket a few bytes
// at a time, crossing every packet boundary the parser could mishandle.
func TestTortureSplitWrites(t *testing.T) { forEachConnEngine(t, testTortureSplitWrites) }

func testTortureSplitWrites(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	script := "GET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n" +
		"GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
	for i := 0; i < len(script); i += 3 {
		end := i + 3
		if end > len(script) {
			end = len(script)
		}
		if _, err := conn.Write([]byte(script[i:end])); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		resp, err := readResponse(br, "GET")
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.status != 200 || string(resp.body) != "hello, world\n" {
			t.Fatalf("response %d: status=%d body=%q", i, resp.status, resp.body)
		}
	}
}

// TestTortureRangeEdgeCases drives every single-range shape through a
// fresh connection and asserts exact status, body, and Content-Range.
func TestTortureRangeEdgeCases(t *testing.T) { forEachConnEngine(t, testTortureRangeEdgeCases) }

func testTortureRangeEdgeCases(t *testing.T) {
	s, base := newTestServer(t, nil)
	etag := fileETag(t, s, "hello.txt")
	lm := func() string {
		st, _ := os.Stat(filepath.Join(s.cfg.DocRoot, "hello.txt"))
		return httpmsg.FormatHTTPTime(st.ModTime())
	}()

	cases := []struct {
		name      string
		hdrs      string
		status    int
		body      string // checked when checkBody
		checkBody bool
		cr        string // expected Content-Range ("" = expect absent)
	}{
		{"first-byte", "Range: bytes=0-0\r\n", 206, "h", true, "bytes 0-0/13"},
		{"suffix", "Range: bytes=-5\r\n", 206, "orld\n", true, "bytes 8-12/13"},
		{"suffix-longer-than-file", "Range: bytes=-99\r\n", 206, "hello, world\n", true, "bytes 0-12/13"},
		{"open-ended", "Range: bytes=5-\r\n", 206, ", world\n", true, "bytes 5-12/13"},
		{"mid", "Range: bytes=5-99\r\n", 206, ", world\n", true, "bytes 5-12/13"},
		{"whole-as-range", "Range: bytes=0-\r\n", 206, "hello, world\n", true, "bytes 0-12/13"},
		{"start-at-size", "Range: bytes=13-\r\n", 416, "", false, "bytes */13"},
		{"start-past-size", "Range: bytes=100-200\r\n", 416, "", false, "bytes */13"},
		{"suffix-zero", "Range: bytes=-0\r\n", 416, "", false, "bytes */13"},
		{"inverted", "Range: bytes=5-4\r\n", 200, "hello, world\n", true, ""},
		{"multi-range-ignored", "Range: bytes=0-0,2-3\r\n", 200, "hello, world\n", true, ""},
		{"unknown-unit", "Range: potato=1-2\r\n", 200, "hello, world\n", true, ""},
		{"malformed", "Range: bytes=\r\n", 200, "hello, world\n", true, ""},
		{"if-range-etag-match", "Range: bytes=0-0\r\nIf-Range: " + etag + "\r\n", 206, "h", true, "bytes 0-0/13"},
		{"if-range-etag-mismatch", "Range: bytes=0-0\r\nIf-Range: \"nope\"\r\n", 200, "hello, world\n", true, ""},
		{"if-range-date-match", "Range: bytes=0-0\r\nIf-Range: " + lm + "\r\n", 206, "h", true, "bytes 0-0/13"},
		{"head-ignores-range", "Range: bytes=0-0\r\n", 200, "", false, ""},
		{"inm-star", "If-None-Match: *\r\n", 304, "", false, ""},
		{"inm-mismatch", "If-None-Match: \"nope\"\r\n", 200, "hello, world\n", true, ""},
		{"inm-weak-match", "If-None-Match: W/" + etag + "\r\n", 304, "", false, ""},
		{"inm-wins-over-ims", "If-None-Match: " + etag + "\r\nIf-Modified-Since: Thu, 01 Jan 1970 00:00:00 GMT\r\n", 304, "", false, ""},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := "GET"
			if tc.name == "head-ignores-range" {
				method = "HEAD"
			}
			conn := dialRaw(t, base)
			fmt.Fprintf(conn, "%s /hello.txt HTTP/1.1\r\nHost: t\r\n%sConnection: close\r\n\r\n", method, tc.hdrs)
			resp, err := readResponse(bufio.NewReader(conn), method)
			if err != nil {
				t.Fatal(err)
			}
			if resp.status != tc.status {
				t.Fatalf("status = %d, want %d", resp.status, tc.status)
			}
			if tc.checkBody && string(resp.body) != tc.body {
				t.Fatalf("body = %q, want %q", resp.body, tc.body)
			}
			if got := resp.headers["content-range"]; got != tc.cr {
				t.Fatalf("content-range = %q, want %q", got, tc.cr)
			}
		})
	}
}

// TestTortureRangeAcrossChunks requests windows that straddle the 64 KB
// chunk boundaries of a multi-chunk file.
func TestTortureRangeAcrossChunks(t *testing.T) { forEachConnEngine(t, testTortureRangeAcrossChunks) }

func testTortureRangeAcrossChunks(t *testing.T) {
	_, base := newTestServer(t, nil)
	// big.bin is 300 KB of 'B' (5 chunks of 64 KB).
	cases := []struct {
		spec      string
		off, size int64
	}{
		{"bytes=65530-65545", 65530, 16},           // straddles chunk 0/1
		{"bytes=131072-131072", 131072, 1},         // exactly at a boundary
		{"bytes=0-131071", 0, 131072},              // two full chunks
		{"bytes=300000-", 300000, 307200 - 300000}, // tail inside last chunk
		{"bytes=-307200", 0, 307200},               // suffix spanning everything
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			conn := dialRaw(t, base)
			fmt.Fprintf(conn, "GET /big.bin HTTP/1.1\r\nHost: t\r\nRange: %s\r\nConnection: close\r\n\r\n", tc.spec)
			resp, err := readResponse(bufio.NewReader(conn), "GET")
			if err != nil {
				t.Fatal(err)
			}
			if resp.status != 206 {
				t.Fatalf("status = %d, want 206", resp.status)
			}
			if int64(len(resp.body)) != tc.size {
				t.Fatalf("body length = %d, want %d", len(resp.body), tc.size)
			}
			wantCR := fmt.Sprintf("bytes %d-%d/307200", tc.off, tc.off+tc.size-1)
			if got := resp.headers["content-range"]; got != wantCR {
				t.Fatalf("content-range = %q, want %q", got, wantCR)
			}
			for _, b := range resp.body {
				if b != 'B' {
					t.Fatal("corrupt range body")
				}
			}
		})
	}
}

// TestTortureOversizedHeader asserts the 400 and the close on a header
// block longer than httpmsg.MaxHeaderLen: one that never terminates within
// the cap, one that arrives whole in a single write, and one that does
// so as a pipelined follower (after the 200 of the request ahead of it).
func TestTortureOversizedHeader(t *testing.T) { forEachConnEngine(t, testTortureOversizedHeader) }

func testTortureOversizedHeader(t *testing.T) {
	get := "GET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n"
	big := fmt.Sprintf("GET /hello.txt HTTP/1.1\r\nHost: t\r\nX-Junk: %s\r\n", strings.Repeat("j", httpmsg.MaxHeaderLen))
	for _, tc := range []struct {
		name, wire string
		ahead      int // 200s before the 400
	}{
		{"incomplete", big, 0},
		{"complete", big + "\r\n", 0},
		{"complete-follower", get + big + "\r\n" + get, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, base := newTestServer(t, nil)
			conn := dialRaw(t, base)
			if _, err := io.WriteString(conn, tc.wire); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			for i := 0; i < tc.ahead; i++ {
				if resp, err := readResponse(br, "GET"); err != nil || resp.status != 200 {
					t.Fatalf("response %d ahead of the 400: %+v err=%v", i, resp, err)
				}
			}
			resp, err := readResponse(br, "GET")
			if err != nil {
				t.Fatal(err)
			}
			if resp.status != 400 {
				t.Fatalf("status = %d, want 400", resp.status)
			}
			if b, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("after the 400: byte %q err=%v, want EOF", b, err)
			}
		})
	}
}

// TestTorturePrematureClose closes the client mid-response and asserts
// the server survives to serve the next connection.
func TestTorturePrematureClose(t *testing.T) { forEachConnEngine(t, testTorturePrematureClose) }

func testTorturePrematureClose(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /big.bin HTTP/1.1\r\nHost: t\r\n\r\n")
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-response

	// The server must still be healthy.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn2 := dialRaw(t, base)
		fmt.Fprintf(conn2, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
		resp, err := readResponse(bufio.NewReader(conn2), "GET")
		if err == nil && resp.status == 200 && string(resp.body) == "hello, world\n" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unhealthy after premature close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTortureMissingHost asserts the RFC 7230 §5.4 rule: HTTP/1.1
// requests must carry Host; 1.0 requests need not.
func TestTortureMissingHost(t *testing.T) { forEachConnEngine(t, testTortureMissingHost) }

func testTortureMissingHost(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\n\r\n")
	resp, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 400 {
		t.Fatalf("1.1 without Host: status = %d, want 400", resp.status)
	}

	conn2 := dialRaw(t, base)
	fmt.Fprintf(conn2, "GET /hello.txt HTTP/1.0\r\n\r\n")
	resp2, err := readResponse(bufio.NewReader(conn2), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.status != 200 {
		t.Fatalf("1.0 without Host: status = %d, want 200", resp2.status)
	}
}

// TestTortureLeadingCRLF asserts stray blank lines between pipelined
// requests are tolerated (RFC 7230 §3.5).
func TestTortureLeadingCRLF(t *testing.T) { forEachConnEngine(t, testTortureLeadingCRLF) }

func testTortureLeadingCRLF(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "\r\n\r\nGET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n"+
		"\r\nGET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		resp, err := readResponse(br, "GET")
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.status != 200 || string(resp.body) != "hello, world\n" {
			t.Fatalf("response %d: status=%d body=%q", i, resp.status, resp.body)
		}
	}
}

// TestTortureBodyRejected asserts a GET announcing a body is refused
// with a close (the body would desynchronize pipelining).
func TestTortureBodyRejected(t *testing.T) { forEachConnEngine(t, testTortureBodyRejected) }

func testTortureBodyRejected(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello")
	resp, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 413 {
		t.Fatalf("status = %d, want 413", resp.status)
	}
	if got := resp.headers["connection"]; got != "close" {
		t.Fatalf("connection = %q, want close", got)
	}
}

// TestTortureErrorEchoesProto asserts error responses echo the
// request's protocol version instead of hardcoding HTTP/1.0.
func TestTortureErrorEchoesProto(t *testing.T) { forEachConnEngine(t, testTortureErrorEchoesProto) }

func testTortureErrorEchoesProto(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	resp, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 404 || resp.proto != "HTTP/1.1" {
		t.Fatalf("got %s %d, want HTTP/1.1 404", resp.proto, resp.status)
	}

	conn2 := dialRaw(t, base)
	fmt.Fprintf(conn2, "GET /nope HTTP/1.0\r\n\r\n")
	resp2, err := readResponse(bufio.NewReader(conn2), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.status != 404 || resp2.proto != "HTTP/1.0" {
		t.Fatalf("got %s %d, want HTTP/1.0 404", resp2.proto, resp2.status)
	}
}

// TestTorture404KeepsConnection asserts a correctly framed 404 does not
// tear down a persistent connection.
func TestTorture404KeepsConnection(t *testing.T) { forEachConnEngine(t, testTorture404KeepsConnection) }

func testTorture404KeepsConnection(t *testing.T) {
	s, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\nGET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	resp, err := readResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 404 {
		t.Fatalf("status = %d, want 404", resp.status)
	}
	resp2, err := readResponse(br, "GET")
	if err != nil {
		t.Fatalf("connection did not survive the 404: %v", err)
	}
	if resp2.status != 200 || string(resp2.body) != "hello, world\n" {
		t.Fatalf("status=%d body=%q", resp2.status, resp2.body)
	}
	if st := s.Stats(); st.Accepted != 1 {
		t.Fatalf("Accepted = %d, want 1", st.Accepted)
	}
}

// TestTortureChunkedDynamic asserts dynamic HTTP/1.1 responses are
// chunk-encoded and keep the connection alive, while 1.0 responses stay
// close-delimited.
func TestTortureChunkedDynamic(t *testing.T) { forEachConnEngine(t, testTortureChunkedDynamic) }

func testTortureChunkedDynamic(t *testing.T) {
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/dyn", func(w ResponseWriter, r *Request) {
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, "dynamic body")
		})
	})

	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /dyn HTTP/1.1\r\nHost: t\r\n\r\n")
	resp, err := readResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 200 || !strings.EqualFold(resp.headers["transfer-encoding"], "chunked") {
		t.Fatalf("status=%d transfer-encoding=%q, want chunked", resp.status, resp.headers["transfer-encoding"])
	}
	if string(resp.body) != "dynamic body" {
		t.Fatalf("body = %q", resp.body)
	}
	if _, ok := resp.headers["content-length"]; ok {
		t.Fatal("chunked response must not carry Content-Length")
	}
	// The connection persists: a second exchange on the same socket.
	fmt.Fprintf(conn, "GET /dyn HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	resp2, err := readResponse(br, "GET")
	if err != nil {
		t.Fatalf("connection did not survive the chunked response: %v", err)
	}
	if string(resp2.body) != "dynamic body" {
		t.Fatalf("second body = %q", resp2.body)
	}

	// HTTP/1.0 stays close-delimited.
	conn2 := dialRaw(t, base)
	fmt.Fprintf(conn2, "GET /dyn HTTP/1.0\r\n\r\n")
	resp3, err := readResponse(bufio.NewReader(conn2), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp3.headers["transfer-encoding"]; ok {
		t.Fatal("1.0 response must not be chunked")
	}
	if string(resp3.body) != "dynamic body" {
		t.Fatalf("1.0 body = %q", resp3.body)
	}
}

// TestTortureDeepPipeline floods one connection with identical
// pipelined requests and asserts every response arrives intact and in
// order.
func TestTortureDeepPipeline(t *testing.T) { forEachConnEngine(t, testTortureDeepPipeline) }

func testTortureDeepPipeline(t *testing.T) {
	s, base := newTestServer(t, nil)
	const depth = 64
	conn := dialRaw(t, base)
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("GET /sub/page.html HTTP/1.1\r\nHost: t\r\n\r\n")
	}
	sb.WriteString("GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	if _, err := io.WriteString(conn, sb.String()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < depth; i++ {
		resp, err := readResponse(br, "GET")
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.status != 200 || len(resp.body) != 5000 {
			t.Fatalf("response %d: status=%d len=%d", i, resp.status, len(resp.body))
		}
	}
	final, err := readResponse(br, "GET")
	if err != nil || final.status != 200 {
		t.Fatalf("final response: %v status=%d", err, final.status)
	}
	if st := s.Stats(); st.Accepted != 1 || st.Responses != depth+1 {
		t.Fatalf("Accepted=%d Responses=%d, want 1/%d", st.Accepted, st.Responses, depth+1)
	}
}

// TestTortureCRLFTrickle asserts a client streaming nothing but CRLF
// bytes cannot hold the connection open past the header cap (the
// stripped preamble counts toward httpmsg.MaxHeaderLen).
func TestTortureCRLFTrickle(t *testing.T) { forEachConnEngine(t, testTortureCRLFTrickle) }

func testTortureCRLFTrickle(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	for i := 0; i < 40; i++ { // 40 KiB in 1 KiB writes
		if _, err := conn.Write([]byte(strings.Repeat("\r\n", 512))); err != nil {
			break // server already gave up on us: also acceptable
		}
	}
	resp, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil {
		t.Fatalf("no response to CRLF flood: %v", err)
	}
	if resp.status != 400 {
		t.Fatalf("status = %d, want 400", resp.status)
	}
}

// TestTortureRejectResetsState asserts a reader-level rejection on a
// persistent connection does not reuse the previous exchange's request
// state: the 413 must echo the *new* request's protocol version.
func TestTortureRejectResetsState(t *testing.T) { forEachConnEngine(t, testTortureRejectResetsState) }

func testTortureRejectResetsState(t *testing.T) {
	var mu sync.Mutex
	var logbuf bytes.Buffer
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logbuf.Write(p)
	})
	_, base := newTestServer(t, func(c *Config) { c.AccessLog = logw })
	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	// Exchange A: HTTP/1.0 with explicit keep-alive.
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
	respA, err := readResponse(br, "GET")
	if err != nil || respA.status != 200 {
		t.Fatalf("exchange A: %v status=%d", err, respA.status)
	}
	// Exchange B: bodied HTTP/1.1 GET → 413 echoing B's proto, not A's.
	fmt.Fprintf(conn, "GET /other.txt HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nxyz")
	respB, err := readResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if respB.status != 413 || respB.proto != "HTTP/1.1" {
		t.Fatalf("got %s %d, want HTTP/1.1 413", respB.proto, respB.status)
	}
	// The log line for the rejection must name B's target, not A's.
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		content := logbuf.String()
		mu.Unlock()
		if strings.Contains(content, "/other.txt") && strings.Contains(content, " 413 ") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log missing the rejected request: %q", content)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTortureCachedHeaderEchoesProto asserts the cached response header
// is re-stamped with each request's protocol version: a 1.1 request
// served from a header cached by a 1.0 request must still say HTTP/1.1.
func TestTortureCachedHeaderEchoesProto(t *testing.T) {
	forEachConnEngine(t, testTortureCachedHeaderEchoesProto)
}

func testTortureCachedHeaderEchoesProto(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.0\r\n\r\n")
	respA, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil || respA.proto != "HTTP/1.0" {
		t.Fatalf("1.0 exchange: %v proto=%q", err, respA.proto)
	}
	conn2 := dialRaw(t, base)
	fmt.Fprintf(conn2, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	respB, err := readResponse(bufio.NewReader(conn2), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if respB.proto != "HTTP/1.1" || respB.status != 200 {
		t.Fatalf("cached header leaked the 1.0 proto: got %s %d", respB.proto, respB.status)
	}
	if string(respB.body) != "hello, world\n" {
		t.Fatalf("body = %q", respB.body)
	}
}

// TestTortureHTTP09SimpleRequest asserts a genuine 0.9 simple request
// ("GET /path" + CRLF, no headers, no blank line) gets a headerless
// body-only response followed by a close.
func TestTortureHTTP09SimpleRequest(t *testing.T) {
	forEachConnEngine(t, testTortureHTTP09SimpleRequest)
}

func testTortureHTTP09SimpleRequest(t *testing.T) {
	_, base := newTestServer(t, nil)
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /hello.txt\r\n")
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "hello, world\n" {
		t.Fatalf("0.9 reply = %q, want bare body", reply)
	}
}

// TestTortureRangeVariantSlotBounded asserts distinct byte windows on
// one file occupy a single header-cache slot instead of minting an
// entry per window.
func TestTortureRangeVariantSlotBounded(t *testing.T) {
	forEachConnEngine(t, testTortureRangeVariantSlotBounded)
}

func testTortureRangeVariantSlotBounded(t *testing.T) {
	s, base := newTestServer(t, func(c *Config) { c.EventLoops = 1 })
	for i := 0; i < 10; i++ {
		conn := dialRaw(t, base)
		fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nRange: bytes=0-%d\r\nConnection: close\r\n\r\n", i)
		resp, err := readResponse(bufio.NewReader(conn), "GET")
		if err != nil || resp.status != 206 {
			t.Fatalf("window %d: %v status=%d", i, err, resp.status)
		}
	}
	var n int
	s.shards[0].call(func() { n = s.shards[0].view.HeaderLen() }) // the view is loop-private
	if n > 2 {
		t.Fatalf("header cache holds %d entries for one path, want <= 2 (base + one range slot)", n)
	}
	// Identical repeated windows hit the slot.
	before := s.Stats().HeaderCache.Hits
	for i := 0; i < 3; i++ {
		conn := dialRaw(t, base)
		fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nRange: bytes=0-5\r\nConnection: close\r\n\r\n")
		if resp, err := readResponse(bufio.NewReader(conn), "GET"); err != nil || resp.status != 206 {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if after := s.Stats().HeaderCache.Hits; after < before+2 {
		t.Fatalf("repeated identical windows did not hit the range slot: hits %d -> %d", before, after)
	}
}

// TestTortureSendfilePrematureClose closes the client mid-transfer
// while the body is streaming through the sendfile transport, then
// asserts the server stays healthy and the descriptor pin taken for
// the transfer is released (only the cache's own reference remains).
func TestTortureSendfilePrematureClose(t *testing.T) {
	forEachConnEngine(t, testTortureSendfilePrematureClose)
}

func testTortureSendfilePrematureClose(t *testing.T) {
	s, base := newTestServer(t, func(c *Config) {
		c.SendfileThreshold = 1 // every static body takes the transport
		c.EventLoops = 1        // one shard, so the entry is findable below
	})
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /big.bin HTTP/1.1\r\nHost: t\r\n\r\n")
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	conn.Close() // mid-sendfile

	// The server must still be healthy.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn2 := dialRaw(t, base)
		fmt.Fprintf(conn2, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
		resp, err := readResponse(bufio.NewReader(conn2), "GET")
		conn2.Close()
		if err == nil && resp.status == 200 && string(resp.body) == "hello, world\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unhealthy after premature close during sendfile: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The aborted transfer's descriptor pin must drain back to the
	// cache's single reference.
	deadline = time.Now().Add(2 * time.Second)
	for {
		refs := -1
		s.shards[0].call(func() {
			if pe, ok := s.shards[0].view.PeekPath("/big.bin"); ok {
				if r := entryRef(pe); r != nil {
					refs = r.Refs()
				}
			}
		})
		if refs == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("big.bin descriptor refs = %d after aborted sendfile, want 1", refs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
