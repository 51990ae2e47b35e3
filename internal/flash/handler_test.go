package flash

// Unit coverage for the Handler v2 surface: the router's method and
// prefix semantics, ResponseWriter framing contracts, registration
// enforcement, and the Shutdown drain signal.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRouterMatch(t *testing.T) {
	h := func(tag string) Handler {
		return HandlerFunc(func(w ResponseWriter, r *Request) { io.WriteString(w, tag) })
	}
	var rt router
	rt.add(Route{Method: "GET", Prefix: "/api/", Handler: h("api-get")})
	rt.add(Route{Method: "POST", Prefix: "/api/", Handler: h("api-post")})
	rt.add(Route{Method: "", Prefix: "/api/files/", Handler: h("files-any")})
	rt.add(Route{Method: "POST", Prefix: "/api/files/upload", Handler: h("upload")})
	rt.add(Route{Method: "DELETE", Prefix: "/admin", Handler: h("admin-del")})

	tag := func(r *Route) string {
		if r == nil {
			return ""
		}
		// Identify routes by pointer-free probe: run the handler.
		rec := &recordWriter{}
		r.Handler.ServeFlash(rec, nil)
		return rec.buf.String()
	}

	cases := []struct {
		method, path string
		want         string // handler tag, or "" for a miss
		allow        string
	}{
		{"GET", "/api/x", "api-get", ""},
		{"POST", "/api/x", "api-post", ""},
		{"HEAD", "/api/x", "api-get", ""}, // HEAD falls back to GET
		{"DELETE", "/api/x", "", "GET, HEAD, POST"},
		{"GET", "/api/files/doc.txt", "files-any", ""}, // longest prefix, wildcard method
		{"POST", "/api/files/upload", "upload", ""},    // longer still, exact method
		{"GET", "/api/files/upload", "files-any", ""},  // method miss falls to wildcard of same prefix? no: longest prefix /api/files/upload has no GET, next: wildcard absent there → 405? see below
		{"DELETE", "/admin/users", "admin-del", ""},
		{"GET", "/admin", "", "DELETE"},
		{"GET", "/elsewhere", "", ""},
	}
	for _, tc := range cases {
		r, allow := rt.match(tc.method, tc.path)
		if got := tag(r); got != tc.want && !(tc.method == "GET" && tc.path == "/api/files/upload") {
			t.Errorf("%s %s: handler = %q, want %q", tc.method, tc.path, got, tc.want)
		}
		if tc.want == "" && allow != tc.allow {
			t.Errorf("%s %s: allow = %q, want %q", tc.method, tc.path, allow, tc.allow)
		}
	}

	// The interesting case spelled out: GET against /api/files/upload —
	// the longest prefix holding the path is "/api/files/upload" (POST
	// only), so the method miss 405s with that prefix's Allow set
	// rather than falling through to a shorter prefix.
	if r, allow := rt.match("GET", "/api/files/upload"); r != nil || allow != "POST" {
		t.Errorf("GET /api/files/upload: route=%v allow=%q, want miss with POST", r, allow)
	}
}

// recordWriter is a throwaway ResponseWriter for probing handlers.
type recordWriter struct {
	hdr Header
	buf strings.Builder
}

func (r *recordWriter) Header() Header {
	if r.hdr == nil {
		r.hdr = make(Header)
	}
	return r.hdr
}
func (r *recordWriter) WriteHeader(int) {}
func (r *recordWriter) Write(p []byte) (int, error) {
	r.buf.Write(p)
	return len(p), nil
}
func (r *recordWriter) Flush() {}

func TestHeaderMapSemantics(t *testing.T) {
	h := make(Header)
	h.Set("content-type", "text/plain")
	if h.Get("Content-Type") != "text/plain" {
		t.Fatal("Set/Get must canonicalize keys")
	}
	h.Add("x-tag", "a")
	h.Add("X-Tag", "b")
	if vs := h["X-Tag"]; len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Fatalf("Add accumulated %v", vs)
	}
	h.Del("X-TAG")
	if h.Get("x-tag") != "" {
		t.Fatal("Del must remove all values")
	}
}

func TestRegistrationAfterServePanics(t *testing.T) {
	s, base := newTestServer(t, nil)
	// newTestServer launches Serve on a goroutine; one completed request
	// proves it has entered (and the route table is frozen) before the
	// late registrations are attempted. Every door must now be shut,
	// loudly.
	get(t, base+"/hello.txt")
	for name, reg := range map[string]func(){
		"Handle":      func() { s.Handle("GET", "/late", HandlerFunc(func(ResponseWriter, *Request) {})) },
		"HandleFunc":  func() { s.HandleFunc("GET", "/late", func(ResponseWriter, *Request) {}) },
		"HandleRoute": func() { s.HandleRoute(Route{Prefix: "/late", Handler: HandlerFunc(func(ResponseWriter, *Request) {})}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Serve did not panic", name)
				}
			}()
			reg()
		}()
	}
}

func TestHandlerExplicitContentLength(t *testing.T) {
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/sized", func(w ResponseWriter, r *Request) {
			w.Header().Set("Content-Type", "text/plain")
			w.Header().Set("Content-Length", "11")
			io.WriteString(w, "sized reply")
		})
	})
	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	// With an explicit length there is no chunking, and the connection
	// persists: run two exchanges on one socket.
	for i := 0; i < 2; i++ {
		hdrs := "Host: t\r\n"
		if i == 1 {
			hdrs += "Connection: close\r\n"
		}
		fmt.Fprintf(conn, "GET /sized HTTP/1.1\r\n%s\r\n", hdrs)
		resp, err := readResponse(br, "GET")
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if resp.status != 200 || string(resp.body) != "sized reply" {
			t.Fatalf("exchange %d: status=%d body=%q", i, resp.status, resp.body)
		}
		if resp.headers["content-length"] != "11" {
			t.Fatalf("exchange %d: content-length = %q", i, resp.headers["content-length"])
		}
		if _, chunked := resp.headers["transfer-encoding"]; chunked {
			t.Fatalf("exchange %d: explicit length must not be chunked", i)
		}
	}
}

func TestHandlerContentLengthMismatchCloses(t *testing.T) {
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/short", func(w ResponseWriter, r *Request) {
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, "only this") // 9 bytes, 91 short
		})
	})
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /short HTTP/1.1\r\nHost: t\r\n\r\n")
	reply, _ := io.ReadAll(conn) // the close is the signal
	// The writer buffers the 9 bytes, so the mismatch is caught before
	// anything reaches the wire: the exchange dies with a bare close
	// (an eager Flush would instead truncate mid-body — either way the
	// client can see the response never completed).
	if strings.Contains(string(reply), "\r\n\r\nonly this") &&
		!strings.Contains(string(reply), "Content-Length: 100") {
		t.Fatalf("body without its declared framing: %q", reply)
	}
	if idx := strings.Index(string(reply), "\r\n\r\n"); idx >= 0 && len(reply)-idx-4 >= 100 {
		t.Fatalf("mismatched response completed with %d body bytes: %q", len(reply)-idx-4, reply)
	}
	// The server itself stays healthy.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn2 := dialRaw(t, base)
		fmt.Fprintf(conn2, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
		resp, err := readResponse(bufio.NewReader(conn2), "GET")
		if err == nil && resp.status == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unhealthy after CL mismatch: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandlerCustomHeadersSortedAndSanitized(t *testing.T) {
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/hdrs", func(w ResponseWriter, r *Request) {
			w.Header().Set("X-Zebra", "last")
			w.Header().Set("X-Alpha", "first")
			w.Header().Set("X-Evil", "ok\r\nInjected: gotcha")
			w.Header().Set("Connection", "upgrade") // server-owned: dropped
			io.WriteString(w, "ok")
		})
	})
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /hdrs HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	resp, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.headers["x-alpha"] != "first" || resp.headers["x-zebra"] != "last" {
		t.Fatalf("custom headers lost: %v", resp.headers)
	}
	if _, ok := resp.headers["injected"]; ok {
		t.Fatal("CRLF injection got through")
	}
	if _, ok := resp.headers["x-evil"]; ok {
		t.Fatal("header with CRLF in its value must be dropped entirely")
	}
	if resp.headers["connection"] != "close" {
		t.Fatalf("server-owned Connection overridden: %q", resp.headers["connection"])
	}
}

func TestHandlerFlushStreamsEarly(t *testing.T) {
	release := make(chan struct{})
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/stream", func(w ResponseWriter, r *Request) {
			io.WriteString(w, "first|")
			w.Flush()
			<-release
			io.WriteString(w, "second")
		})
	})
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /stream HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	br := bufio.NewReader(conn)
	// The first flushed chunk must arrive while the handler is still
	// blocked — i.e. before release is closed.
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading header: %v", err)
		}
		if strings.TrimRight(line, "\r\n") == "" {
			break
		}
	}
	sz, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	first := make([]byte, 6)
	if _, err := io.ReadFull(br, first); err != nil {
		t.Fatal(err)
	}
	if string(first) != "first|" {
		t.Fatalf("flushed chunk = %q (size line %q)", first, sz)
	}
	close(release)
	rest, _ := io.ReadAll(br)
	if !strings.Contains(string(rest), "second") {
		t.Fatalf("tail missing: %q", rest)
	}
}

// TestHandlerLargeSingleWriteBounded asserts one huge Write is shipped
// as pipe-buffer-sized chunks — a slow client throttles its handler
// every buffer, and the response's memory stays bounded — instead of
// one giant write.
func TestHandlerLargeSingleWriteBounded(t *testing.T) {
	const n = 200 << 10
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/big", func(w ResponseWriter, r *Request) {
			w.Write(bytes.Repeat([]byte("z"), n)) // one call
		})
	})
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /big HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimRight(line, "\r\n") == "" {
			break
		}
	}
	var got int64
	for {
		sz, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		c, err := strconv.ParseInt(strings.TrimRight(sz, "\r\n"), 16, 64)
		if err != nil {
			t.Fatalf("bad chunk size %q", sz)
		}
		if c > dynBufSize {
			t.Fatalf("chunk of %d bytes exceeds the %d-byte pipe buffer", c, dynBufSize)
		}
		if c == 0 {
			break
		}
		if _, err := io.CopyN(io.Discard, br, c+2); err != nil {
			t.Fatal(err)
		}
		got += c
	}
	if got != n {
		t.Fatalf("body = %d bytes, want %d", got, n)
	}
}

// TestHandlerBodylessStatusSuppressesWrites: bytes written after
// WriteHeader(204) (or 304) must never reach the wire — a client knows
// those statuses carry no body and would parse the stray bytes as the
// next response.
func TestHandlerBodylessStatusSuppressesWrites(t *testing.T) {
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/nc", func(w ResponseWriter, r *Request) {
			w.WriteHeader(204)
			io.WriteString(w, "leaked body")
		})
	})
	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /nc HTTP/1.1\r\nHost: t\r\n\r\nGET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	resp, err := readResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 204 {
		t.Fatalf("status = %d, want 204", resp.status)
	}
	// The pipelined follower must parse cleanly — leaked body bytes
	// would corrupt its status line.
	resp2, err := readResponse(br, "GET")
	if err != nil {
		t.Fatalf("follower after 204: %v", err)
	}
	if resp2.status != 200 || string(resp2.body) != "hello, world\n" {
		t.Fatalf("follower: status=%d body=%q", resp2.status, resp2.body)
	}
}

// TestShutdownDrainSignalsEarly asserts Shutdown returns as soon as
// the last connection finishes — it waits on the admitted-connection
// count, not a poll — and well before the timeout.
func TestShutdownDrainSignalsEarly(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/slow", func(w ResponseWriter, r *Request) {
			entered <- struct{}{}
			<-release
			io.WriteString(w, "done")
		})
	})
	// One in-flight request holds the server open.
	got := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		got <- err
	}()
	<-entered

	var elapsed atomic.Int64
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		err := s.Shutdown(30 * time.Second)
		elapsed.Store(int64(time.Since(start)))
		done <- err
	}()
	// Give Shutdown time to start its wait, then let the handler
	// finish.
	time.Sleep(100 * time.Millisecond)
	close(release)

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last connection drained")
	}
	if err := <-got; err != nil {
		t.Fatalf("in-flight request failed during graceful shutdown: %v", err)
	}
	if d := time.Duration(elapsed.Load()); d > 3*time.Second {
		t.Fatalf("Shutdown took %v; the drain signal should have fired in milliseconds", d)
	}
}

// TestShutdownServeReturnsErrServerClosed: once Shutdown has begun,
// Serve returns ErrServerClosed — not the accept error of the listener
// Shutdown closed — and a Serve called during the drain returns it at
// once, while the request in flight still gets its answer.
func TestShutdownServeReturnsErrServerClosed(t *testing.T) {
	entered := make(chan struct{}, 1)
	s, err := New(Config{DocRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.HandleFunc("GET", "/slow", func(w ResponseWriter, r *Request) {
		entered <- struct{}{}
		time.Sleep(300 * time.Millisecond)
		io.WriteString(w, "done")
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	t.Cleanup(func() { s.Close() })

	type answer struct {
		status int
		body   string
		err    error
	}
	got := make(chan answer, 1)
	go func() {
		resp, err := http.Get("http://" + l.Addr().String() + "/slow")
		if err != nil {
			got <- answer{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- answer{resp.StatusCode, string(body), err}
	}()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(5 * time.Second) }()
	select {
	case err := <-served:
		if err != ErrServerClosed {
			t.Fatalf("Serve during Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown began")
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l2); err != ErrServerClosed {
		t.Fatalf("Serve called during Shutdown returned %v, want ErrServerClosed", err)
	}
	if a := <-got; a.err != nil || a.status != 200 || a.body != "done" {
		t.Fatalf("in-flight request: status %d body %q err %v, want 200 \"done\"", a.status, a.body, a.err)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownNoConnectionsReturnsImmediately covers the empty case.
func TestShutdownNoConnectionsReturnsImmediately(t *testing.T) {
	s, _ := newTestServer(t, nil)
	start := time.Now()
	if err := s.Shutdown(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("idle Shutdown took %v", d)
	}
}

// TestShutdownTimeoutForcesClose: a connection that never finishes is
// force-closed once the timeout lapses.
func TestShutdownTimeoutForcesClose(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	entered := make(chan struct{}, 1)
	s, base := newTestServer(t, nil, func(s *Server) {
		s.HandleFunc("GET", "/hang", func(w ResponseWriter, r *Request) {
			entered <- struct{}{}
			<-block
		})
	})
	go http.Get(base + "/hang")
	<-entered
	start := time.Now()
	if err := s.Shutdown(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 150*time.Millisecond || d > 5*time.Second {
		t.Fatalf("forced shutdown took %v, want ~200ms", d)
	}
}

// TestHandlerOwnWrites covers a handler's goroutine writing its response
// to the socket itself, with the loop hearing of the exchange only when
// it starts and when ServeFlash returns.
func TestHandlerOwnWrites(t *testing.T) {
	t.Run("stalled-client", func(t *testing.T) {
		// A handler blocked on a client that stopped reading holds up
		// nothing but itself: warm static GETs on another connection
		// keep answering. The client's reset fails the blocked Write,
		// the handler returns, and nothing stays pinned.
		long := pattern(8 << 20)
		var written atomic.Int64
		werr := make(chan error, 1)
		s, base := newTestServer(t, func(c *Config) { c.EventLoops = 1 }, func(s *Server) {
			s.HandleFunc("GET", "/stream", func(w ResponseWriter, _ *Request) {
				for p := long; len(p) > 0; p = p[dynBufSize:] {
					if _, err := w.Write(p[:dynBufSize]); err != nil {
						werr <- err
						return
					}
					written.Add(dynBufSize)
				}
				werr <- nil
			})
		})
		mustWrite(t, s.cfg.DocRoot, "one.bin", string(pattern(100<<10)))
		other := dialRaw(t, base)
		defer other.Close()
		obr := bufio.NewReader(other)
		getOne := func() time.Duration {
			start := time.Now()
			fmt.Fprintf(other, "GET /one.bin HTTP/1.1\r\nHost: t\r\n\r\n")
			resp, err := readResponse(obr, "GET")
			if err != nil || resp.status != 200 || !bytes.Equal(resp.body, pattern(100<<10)) {
				t.Fatalf("static GET beside the stalled handler: %+v err=%v", resp.status, err)
			}
			return time.Since(start)
		}
		getOne() // warm

		stalled := dialRaw(t, base)
		stalled.(*net.TCPConn).SetReadBuffer(16 << 10)
		fmt.Fprintf(stalled, "GET /stream HTTP/1.1\r\nHost: t\r\n\r\n")
		// Wait until the handler is blocked: its progress stops.
		last, still := int64(-1), 0
		waitFor(t, "the handler to block on the stalled client", func() bool {
			if n := written.Load(); n > 0 && n == last {
				still++
			} else {
				last, still = n, 0
			}
			return still >= 10
		})
		if written.Load() == int64(len(long)) {
			t.Fatal("the whole stream fit in the socket buffers; the handler never blocked")
		}
		for i := 0; i < 20; i++ {
			if d := getOne(); d > 100*time.Millisecond {
				t.Fatalf("static GET %d took %v beside a stalled handler", i, d)
			}
		}
		stalled.(*net.TCPConn).SetLinger(0)
		stalled.Close()
		select {
		case err := <-werr:
			if err == nil {
				t.Fatal("the handler's Write succeeded after the client reset")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the handler's Write did not return after the client reset")
		}
		waitReleased(t, s)
	})

	t.Run("write-after-return", func(t *testing.T) {
		// A ResponseWriter kept past ServeFlash writes nothing: its bytes
		// would land in the next exchange on the connection.
		kept := make(chan ResponseWriter, 1)
		_, base := newTestServer(t, nil, func(s *Server) {
			s.HandleFunc("GET", "/keep", func(w ResponseWriter, _ *Request) {
				io.WriteString(w, "chunked reply") // no Content-Length: chunked
				kept <- w
			})
		})
		conn := dialRaw(t, base)
		defer conn.Close()
		br := bufio.NewReader(conn)
		fmt.Fprintf(conn, "GET /keep HTTP/1.1\r\nHost: t\r\n\r\n")
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != 200 || string(resp.body) != "chunked reply" {
			t.Fatalf("handler response: %+v err=%v", resp, err)
		}
		w := <-kept
		if n, err := w.Write([]byte("late bytes")); n != 0 || err != ErrResponseAborted {
			t.Fatalf("Write after ServeFlash returned: %d, %v; want 0, ErrResponseAborted", n, err)
		}
		w.Flush()
		fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n")
		resp, err = readResponse(br, "GET")
		if err != nil || resp.status != 200 || string(resp.body) != "hello, world\n" {
			t.Fatalf("next response on the connection: %+v err=%v", resp, err)
		}
	})

	t.Run("loop-messages", func(t *testing.T) {
		// A 1 MiB response costs the loop its exchange's post and its
		// end, whatever the number of socket writes.
		body := pattern(1 << 20)
		s, base := newTestServer(t, func(c *Config) { c.EventLoops = 1 }, func(s *Server) {
			s.HandleFunc("GET", "/mib", func(w ResponseWriter, _ *Request) {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				w.Write(body)
			})
		})
		conn := dialRaw(t, base)
		defer conn.Close()
		br := bufio.NewReader(conn)
		get := func() {
			fmt.Fprintf(conn, "GET /mib HTTP/1.1\r\nHost: t\r\n\r\n")
			resp, err := readResponse(br, "GET")
			if err != nil || resp.status != 200 || !bytes.Equal(resp.body, body) {
				t.Fatalf("1 MiB handler response: status %d, %d body bytes, err=%v", resp.status, len(resp.body), err)
			}
		}
		get() // warm
		before := waitStats(t, s, "the warm-up exchange to end", func(st Stats) bool { return st.Responses == 1 })
		get()
		after := waitStats(t, s, "the exchange to end", func(st Stats) bool { return st.Responses == 2 })
		if msgs := after.LoopMsgs - before.LoopMsgs; msgs != 2 {
			t.Fatalf("a 1 MiB handler response cost %d loop messages, want 2", msgs)
		}
		if w := after.GatherWrites - before.GatherWrites; w != 32 {
			t.Fatalf("a 1 MiB handler response took %d socket writes, want 32 (32 KiB each, the header in the first)", w)
		}
	})
}
