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
	"unsafe"
)

// These tests are the tentpole's machine-checked invariant: a
// steady-state keep-alive exchange on the static cache-hit and
// 304-revalidation paths performs ZERO heap allocations per request —
// across the whole pipeline (connection goroutine and event loop).
// testing.AllocsPerRun counts mallocs process-wide, so the
// client below is written to be allocation-free too; the integer
// division inside AllocsPerRun absorbs stray background allocations as
// long as they stay below one per run.
//
// The dynamic (handler) path is not allocation-free by design — each
// exchange spawns a handler goroutine, materializes the header map,
// and builds a response header — but its budget is bounded and guarded
// here so it cannot silently regress (see README "Performance").

// allocGuardServer starts a single-shard server tuned for steady-state
// measurement: revalidation off (the hit path, not the stat helper, is
// under test) and no access log.
func allocGuardServer(t testing.TB, register func(*Server)) (addr string, stop func()) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f.html"),
		bytes.Repeat([]byte("x"), 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "multi.bin"), pattern(160<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DocRoot:            root,
		EventLoops:         1,
		RevalidateInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if register != nil {
		register(s)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	return l.Addr().String(), func() { s.Close() }
}

// measureAllocs reports the per-exchange allocation count for req over
// a warm keep-alive connection (one exchange = one write of req plus
// reading the full, length-stable response).
func measureAllocs(t *testing.T, addr string, req []byte, depth int) float64 {
	t.Helper()
	c := newSteadyClient(t, addr, req, depth)
	defer c.close()
	return testing.AllocsPerRun(200, func() {
		c.roundTrip(t)
	})
}

// TestAllocsStaticHit is the acceptance gate: 0 allocs/request on a
// warm keep-alive static cache hit, serial and pipelined.
func TestAllocsStaticHit(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	get := []byte("GET /f.html HTTP/1.1\r\nHost: alloc\r\n\r\n")
	if n := measureAllocs(t, addr, get, 1); n > 0 {
		t.Errorf("static cache hit: %.2f allocs/request, want 0", n)
	}
	const depth = 8
	if n := measureAllocs(t, addr, bytes.Repeat(get, depth), depth); n > 0 {
		t.Errorf("pipelined static cache hit: %.2f allocs/burst of %d, want 0", n, depth)
	}
}

// TestAllocsManyFields holds a request with more distinct fields than
// the parser keeps inline to the same bar: the overflow slice is the
// connection's recycled request's, so a warm hit allocates nothing.
func TestAllocsManyFields(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	var b strings.Builder
	b.WriteString("GET /f.html HTTP/1.1\r\nHost: alloc\r\n")
	for i := 0; i < 19; i++ {
		fmt.Fprintf(&b, "X-Field-%d: value %d\r\n", i, i)
	}
	b.WriteString("\r\n")
	if n := measureAllocs(t, addr, []byte(b.String()), 1); n > 0 {
		t.Errorf("static cache hit with 20 fields: %.2f allocs/request, want 0", n)
	}
}

// TestAllocsPipelinedBurst holds the gathered path to the same bar: a
// warm 16-deep burst — committed on the loop, corked on the connection,
// flushed in a few writev calls — allocates nothing, because the
// gather list, the header arena, the writev scratch and the pin FIFO
// are connection-owned and reused.
func TestAllocsPipelinedBurst(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	const depth = 16
	get := []byte("GET /f.html HTTP/1.1\r\nHost: alloc\r\n\r\n")
	if n := measureAllocs(t, addr, bytes.Repeat(get, depth), depth); n > 0 {
		t.Errorf("pipelined burst: %.2f allocs/burst of %d, want 0", n, depth)
	}
}

// TestAllocsMultiChunkHit: a warm three-chunk response is one run — its
// chunks and windows travel in connection-owned scratch, its pins on
// the connection's FIFO — and allocates nothing, serial or pipelined.
func TestAllocsMultiChunkHit(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	get := []byte("GET /multi.bin HTTP/1.1\r\nHost: alloc\r\n\r\n")
	if n := measureAllocs(t, addr, get, 1); n > 0 {
		t.Errorf("three-chunk cache hit: %.2f allocs/request, want 0", n)
	}
	const depth = 4
	if n := measureAllocs(t, addr, bytes.Repeat(get, depth), depth); n > 0 {
		t.Errorf("pipelined three-chunk cache hit: %.2f allocs/burst of %d, want 0", n, depth)
	}
}

// TestAllocsRevalidate304 guards the conditional-GET fast path: an
// If-None-Match revalidation against the cached entity tag is also
// allocation-free (cached 304 header variants, no string building in
// ETag comparison).
func TestAllocsRevalidate304(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	warm := newSteadyClient(t, addr, []byte("GET /f.html HTTP/1.1\r\nHost: alloc\r\n\r\n"), 1)
	etag := warm.lastETag
	warm.close()
	if etag == "" {
		t.Fatal("no ETag captured from warmup 200")
	}
	reval := []byte("GET /f.html HTTP/1.1\r\nHost: alloc\r\nIf-None-Match: " + etag + "\r\n\r\n")
	if n := measureAllocs(t, addr, reval, 1); n > 0 {
		t.Errorf("If-None-Match revalidation: %.2f allocs/request, want 0", n)
	}
}

// TestAllocsHeadHit covers the HEAD variant of the static hit (a
// fixed-buffer response from the cached header).
func TestAllocsHeadHit(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	head := []byte("HEAD /f.html HTTP/1.1\r\nHost: alloc\r\n\r\n")
	if n := measureAllocs(t, addr, head, 1); n > 0 {
		t.Errorf("HEAD cache hit: %.2f allocs/request, want 0", n)
	}
}

// TestAllocsProxyHit bounds a warm proxied hit — a fresh entry answered
// from the key's segment through the file path's responder — at one
// allocation per request: the cache key the target is joined into.
func TestAllocsProxyHit(t *testing.T) {
	origin := newTestOrigin(t, nil)
	origin.setHandler(origin.cachedOrigin(func(string) []byte { return pattern(1024) }, "max-age=600"))
	pool := testPoolFor(t, origin.addr)
	addr, stop := allocGuardServer(t, func(s *Server) { s.HandleProxy("/up/", pool) })
	defer stop()

	get := []byte("GET /up/data HTTP/1.1\r\nHost: alloc\r\n\r\n")
	n := measureAllocs(t, addr, get, 1)
	t.Logf("warm proxied hit: %.2f allocs/request", n)
	if n > 1 {
		t.Errorf("warm proxied hit: %.2f allocs/request, want at most 1", n)
	}
	if f := origin.fetches.Load(); f != 1 {
		t.Errorf("origin fetches = %d, want 1", f)
	}
}

// handlerAllocBudget is the documented per-request allocation budget of
// the dynamic (v2 handler) path: handler goroutine + response writer +
// header map materialization + body reader + rendered header. Measured
// ~20 on go1.24; the bound leaves headroom for toolchain drift while
// still catching structural regressions (a leak of the static path's
// old per-request garbage into the shared pipeline would blow straight
// through it).
const handlerAllocBudget = 40

// TestAllocsHandlerBudget pins the dynamic path's allocation budget.
func TestAllocsHandlerBudget(t *testing.T) {
	addr, stop := allocGuardServer(t, func(s *Server) {
		s.HandleFunc("POST", "/echo", func(w ResponseWriter, r *Request) {
			w.Header().Set("Content-Length", "2")
			w.Write([]byte("ok"))
		})
	})
	defer stop()

	post := []byte("POST /echo HTTP/1.1\r\nHost: alloc\r\nContent-Length: 3\r\n\r\nabc")
	n := measureAllocs(t, addr, post, 1)
	t.Logf("handler path: %.1f allocs/request (budget %d)", n, handlerAllocBudget)
	if n > handlerAllocBudget {
		t.Errorf("handler path: %.1f allocs/request exceeds budget %d", n, handlerAllocBudget)
	}
}

// TestAllocsHandlerBehindBatch: a handler request pipelined behind
// static hits costs what it costs alone. The batch the hits form stops
// at the handler's head without planning it, so its body reader is
// built once, when its own exchange is posted.
func TestAllocsHandlerBehindBatch(t *testing.T) {
	addr, stop := allocGuardServer(t, func(s *Server) {
		s.HandleFunc("POST", "/echo", func(w ResponseWriter, r *Request) {
			w.Header().Set("Content-Length", "2")
			w.Write([]byte("ok"))
		})
	})
	defer stop()

	get := []byte("GET /f.html HTTP/1.1\r\nHost: alloc\r\n\r\n")
	post := []byte("POST /echo HTTP/1.1\r\nHost: alloc\r\nContent-Length: 3\r\n\r\nabc")
	alone := measureAllocs(t, addr, post, 1)

	getOne := newSteadyClient(t, addr, get, 1)
	getLen := getOne.respLen
	getOne.close()
	postOne := newSteadyClient(t, addr, post, 1)
	postLen := postOne.respLen
	postOne.close()

	const depth = 4
	c := dialSteady(t, addr, append(bytes.Repeat(get, depth), post...))
	defer c.close()
	c.respLen = depth*getLen + postLen
	c.warm(t)
	behind := testing.AllocsPerRun(200, func() { c.roundTrip(t) })
	t.Logf("handler alone %.1f allocs, behind %d static hits %.1f", alone, depth, behind)
	if behind > alone {
		t.Errorf("handler behind %d static hits: %.1f allocs/burst, want at most %.1f (alone)",
			depth, behind, alone)
	}
}

// TestSteadyResponsesStable sanity-checks the assumption both the
// benchmarks and the alloc guards rest on: steady-state responses for
// one request are byte-length-stable (cached headers freeze the Date).
func TestSteadyResponsesStable(t *testing.T) {
	addr, stop := allocGuardServer(t, nil)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req := []byte("GET /f.html HTTP/1.1\r\nHost: alloc\r\n\r\n")
	var first []byte
	buf := make([]byte, 64<<10)
	for i := 0; i < 5; i++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		n, _, err := readOneResponse(conn, buf, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = []byte(strings.Repeat("x", n)) // length witness
		} else if n != len(first) {
			t.Fatalf("response %d length %d != first %d", i, n, len(first))
		}
	}
}

// steadyClient is an allocation-free measurement client: it learns the
// exact response length during warmup (steady-state responses are
// byte-identical — cached headers freeze the Date) and then reads
// exactly that many bytes per exchange into a fixed buffer, so client-
// side garbage never pollutes the server's allocs/op.
type steadyClient struct {
	conn     net.Conn
	req      []byte
	respLen  int // total bytes of one full exchange (all pipelined responses)
	buf      []byte
	lastETag string
}

func newSteadyClient(b testing.TB, addr string, req []byte, depth int) *steadyClient {
	b.Helper()
	c := dialSteady(b, addr, req)

	// First exchange: measure one response, scraping Content-Length and
	// ETag from the header block.
	if _, err := c.conn.Write(req); err != nil {
		b.Fatal(err)
	}
	one, etag, err := readOneResponse(c.conn, c.buf, !bytes.HasPrefix(req, []byte("HEAD ")))
	if err != nil {
		b.Fatal(err)
	}
	c.lastETag = etag
	c.respLen = one * depth
	// Drain the rest of the first burst.
	if err := c.readFull(c.respLen - one); err != nil {
		b.Fatal(err)
	}
	c.warm(b)
	return c
}

func dialSteady(b testing.TB, addr string, req []byte) *steadyClient {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Minute))
	return &steadyClient{conn: conn, req: req, buf: make([]byte, 256<<10)} // holds any one response
}

// warm runs exchanges until every layer (caches, goroutine stacks,
// iovec buffers) is warm, before the measured loop.
func (c *steadyClient) warm(b testing.TB) {
	for i := 0; i < 64; i++ {
		c.roundTrip(b)
	}
}

func (c *steadyClient) roundTrip(b testing.TB) {
	if _, err := c.conn.Write(c.req); err != nil {
		b.Fatal(err)
	}
	if err := c.readFull(c.respLen); err != nil {
		b.Fatal(err)
	}
}

func (c *steadyClient) readFull(n int) error {
	for n > 0 {
		lim := n
		if lim > len(c.buf) {
			lim = len(c.buf)
		}
		m, err := c.conn.Read(c.buf[:lim])
		if err != nil {
			return err
		}
		n -= m
	}
	return nil
}

func (c *steadyClient) close() { c.conn.Close() }

// readOneResponse reads exactly one complete response from conn,
// returning its total byte length and any ETag header value. hasBody
// is false for responses whose Content-Length is never followed by
// body bytes (HEAD).
func readOneResponse(conn net.Conn, scratch []byte, hasBody bool) (int, string, error) {
	total := 0
	var hdr []byte
	for {
		n, err := conn.Read(scratch[:1])
		if err != nil {
			return 0, "", err
		}
		total += n
		hdr = append(hdr, scratch[:n]...)
		if bytes.HasSuffix(hdr, []byte("\r\n\r\n")) {
			break
		}
		if len(hdr) > 32<<10 {
			return 0, "", fmt.Errorf("runaway header")
		}
	}
	etag := ""
	cl := int64(0)
	for _, line := range bytes.Split(hdr, []byte("\r\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("ETag: ")); ok {
			etag = string(bytes.TrimSpace(v))
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			fmt.Sscanf(string(v), "%d", &cl)
		}
	}
	if cl > 0 && hasBody {
		if _, err := io.ReadFull(conn, scratch[:cl]); err != nil {
			return 0, "", err
		}
		total += int(cl)
	}
	return total, etag, nil
}

// TestConnRecordSizeClass keeps the connection record in the 1 536-byte
// size class, where the connection set-up layout put it. Go puts an
// 8-byte malloc header in front of a pointerful object larger than
// 512 bytes, so a conn of more than 1 528 bytes lands in the 1 792-byte
// class and costs every new connection 256 bytes more — a growth
// TestAllocsConnChurn's byte bound would still let through.
func TestConnRecordSizeClass(t *testing.T) {
	var c conn
	if n := unsafe.Sizeof(c); n > 1528 {
		t.Fatalf("conn is %d B, want at most 1528 (the 1536-B size class less the 8-B malloc header)", n)
	}
}

// TestLoopMsgSizeClass keeps a loop message within 64 bytes: every
// shard's mailbox buffers 512 of them, and every batch post, flush
// report and connection end is copied through it.
func TestLoopMsgSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(loopMsg{}); n > 64 {
		t.Fatalf("loopMsg is %d B, want at most 64", n)
	}
}
