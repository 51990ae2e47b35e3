package flash

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// This file tortures the zero-copy request parser's aliasing contract:
// the recycled per-connection Request holds byte-slice views into the
// connection's head buffer, while pipelined follower requests, body
// pushbacks, and carry-over shifts all churn the read buffer the head
// was lifted from. The invariant under test: a pipelined burst must
// produce byte-for-byte the same response stream as the same requests
// sent one at a time — any view corrupted by a follower overwriting
// the read buffer (stale slices after Reset, in-place prepends
// clobbering a live head, ring shifts moving bytes under a view) shows
// up as a diverging stream.

// zcServer starts a deterministic server for stream comparison: one
// shard, fixed clock (so Date headers never differ between runs), tiny
// chunks (multi-item walks), revalidation off, and an /echo handler
// that reflects a request marker plus its full body — cross-request
// bleed in either direction corrupts an echo.
func zcServer(t *testing.T) (addr string) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "a.html"),
		[]byte(strings.Repeat("AaAa", 250)), 0o644); err != nil { // 1000 B = 4 chunks
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "b.html"),
		[]byte(strings.Repeat("BbBb", 300)), 0o644); err != nil { // 1200 B = 5 chunks
		t.Fatal(err)
	}
	fixed := time.Date(1999, 6, 1, 0, 0, 0, 0, time.UTC)
	s, err := New(Config{
		DocRoot:            root,
		EventLoops:         1,
		Cache:              CacheConfig{ChunkBytes: 256},
		RevalidateInterval: -1,
		Clock:              func() time.Time { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.HandleFunc("POST", "/echo", func(w ResponseWriter, r *Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(400)
			return
		}
		// Echo the marker header and the body; any stale view in the
		// materialized header map or a body crossing exchanges diverges.
		resp := fmt.Sprintf("marker=%s body=%s", r.Headers["x-marker"], body)
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Content-Length", fmt.Sprint(len(resp)))
		w.Write([]byte(resp))
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l.Addr().String()
}

// zcScript builds the request burst: every request carries a distinct
// marker, conditionals deliberately reuse the OTHER file's validator
// (a bleed turns a 200 into a 304 or vice versa), and chunked uploads
// with trailers force pushback of follower bytes through conn.unread
// while earlier responses are still streaming.
func zcScript(etagA, etagB string) [][]byte {
	var reqs [][]byte
	add := func(format string, args ...any) {
		reqs = append(reqs, []byte(fmt.Sprintf(format, args...)))
	}
	for round := 0; round < 3; round++ {
		add("GET /a.html HTTP/1.1\r\nHost: t\r\nX-Marker: r%d-a\r\n\r\n", round)
		add("GET /b.html HTTP/1.1\r\nHost: t\r\nX-Marker: r%d-b\r\n\r\n", round)
		// True revalidation: 304.
		add("GET /a.html HTTP/1.1\r\nHost: t\r\nIf-None-Match: %s\r\nX-Marker: r%d-304\r\n\r\n", etagA, round)
		// Cross-file validator: must stay 200.
		add("GET /b.html HTTP/1.1\r\nHost: t\r\nIf-None-Match: %s\r\nX-Marker: r%d-x\r\n\r\n", etagA, round)
		add("GET /a.html HTTP/1.1\r\nHost: t\r\nIf-None-Match: %s\r\nX-Marker: r%d-y\r\n\r\n", etagB, round)
		add("HEAD /a.html HTTP/1.1\r\nHost: t\r\nX-Marker: r%d-h\r\n\r\n", round)
		// Range window crossing a chunk boundary of the 256-byte walk.
		add("GET /a.html HTTP/1.1\r\nHost: t\r\nRange: bytes=200-399\r\nX-Marker: r%d-r\r\n\r\n", round)
		// Length-framed upload with a distinct body.
		body := fmt.Sprintf("upload-%d-%s", round, strings.Repeat("u", 40+round))
		add("POST /echo HTTP/1.1\r\nHost: t\r\nX-Marker: r%d-p\r\nContent-Length: %d\r\n\r\n%s",
			round, len(body), body)
		// Chunked upload with a trailer: the decoder over-reads into the
		// follower and pushes it back via conn.unread.
		chunk := fmt.Sprintf("chunky-%d", round)
		add("POST /echo HTTP/1.1\r\nHost: t\r\nX-Marker: r%d-c\r\nTransfer-Encoding: chunked\r\n\r\n"+
			"%x\r\n%s\r\n0\r\nX-Trailer: t%d\r\n\r\n", round, len(chunk), chunk, round)
		// A 404 and an HTTP/1.0 keep-alive (exercises the cached-header
		// proto/persistence patch) round out the shapes.
		add("GET /nope-%d.html HTTP/1.1\r\nHost: t\r\nX-Marker: r%d-404\r\n\r\n", round, round)
		add("GET /a.html HTTP/1.0\r\nConnection: keep-alive\r\nX-Marker: r%d-10\r\n\r\n", round)
	}
	// Terminal request closes the connection so both runs end at EOF.
	reqs = append(reqs, []byte("GET /a.html HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Marker: fin\r\n\r\n"))
	return reqs
}

// fetchETag grabs the ETag of path over a throwaway connection.
func fetchETag(t *testing.T, addr, path string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", path)
	raw, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(raw, []byte("\r\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("ETag: ")); ok {
			return string(bytes.TrimSpace(v))
		}
	}
	t.Fatalf("no ETag in response for %s", path)
	return ""
}

// runScript sends the script over one connection — either one request
// per write with a full read-to-quiet between (serial), or the whole
// burst in a single write (pipelined) — and returns the complete
// response stream.
func runScript(t *testing.T, addr string, reqs [][]byte, pipelined bool) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	var out bytes.Buffer
	if pipelined {
		var burst bytes.Buffer
		for _, r := range reqs {
			burst.Write(r)
		}
		if _, err := conn.Write(burst.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(&out, conn); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	buf := make([]byte, 64<<10)
	for i, r := range reqs {
		if _, err := conn.Write(r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i == len(reqs)-1 {
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			if _, err := io.Copy(&out, conn); err != nil {
				t.Fatal(err)
			}
			break
		}
		// Read until the connection quiesces: a short read deadline
		// bridges multi-item responses without swallowing the follower.
		for {
			conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
			n, err := conn.Read(buf)
			out.Write(buf[:n])
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() && out.Len() > 0 {
					break
				}
				t.Fatalf("request %d: %v", i, err)
			}
		}
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return out.Bytes()
}

// TestTortureZeroCopyAliasing is the satellite's aliasing torture: a
// 37-request mixed burst (static hits, true and cross-file
// conditionals, HEAD, ranges, length-framed and chunked-with-trailer
// uploads, 404s, HTTP/1.0 persistence patches) pipelined into one
// write must produce exactly the serial stream. The fixed clock makes
// the comparison byte-exact, Date included.
func TestTortureZeroCopyAliasing(t *testing.T) { forEachConnEngine(t, testTortureZeroCopyAliasing) }

func testTortureZeroCopyAliasing(t *testing.T) {
	addr := zcServer(t)
	etagA := fetchETag(t, addr, "/a.html")
	etagB := fetchETag(t, addr, "/b.html")
	reqs := zcScript(etagA, etagB)

	serial := runScript(t, addr, reqs, false)
	pipelined := runScript(t, addr, reqs, true)

	if !bytes.Equal(serial, pipelined) {
		i := 0
		for i < len(serial) && i < len(pipelined) && serial[i] == pipelined[i] {
			i++
		}
		lo, hi := max(i-120, 0), i+120
		t.Fatalf("pipelined stream diverges from serial at byte %d\nserial:    %q\npipelined: %q",
			i, clip(serial, lo, hi), clip(pipelined, lo, hi))
	}
	// Sanity: the stream contains every marker's echo exactly once and
	// the expected status mix (no bleed flipped a conditional).
	for round := 0; round < 3; round++ {
		for _, m := range []string{"-p", "-c"} {
			want := fmt.Sprintf("marker=r%d%s body=", round, m)
			if n := bytes.Count(pipelined, []byte(want)); n != 1 {
				t.Errorf("echo %q appears %d times, want 1", want, n)
			}
		}
	}
	if n := bytes.Count(pipelined, []byte(" 304 Not Modified")); n != 3 {
		t.Errorf("got %d 304s, want exactly 3 (cross-file validators must stay 200)", n)
	}
	if n := bytes.Count(pipelined, []byte(" 206 Partial Content")); n != 3 {
		t.Errorf("got %d 206s, want 3", n)
	}
	if n := bytes.Count(pipelined, []byte(" 404 Not Found")); n != 3 {
		t.Errorf("got %d 404s, want 3", n)
	}
}

func clip(b []byte, lo, hi int) []byte {
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return b[lo:hi]
}
