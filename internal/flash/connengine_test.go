package flash

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// connEngineLabels are the conn-engine subtest labels. The server has
// one connection driver, and both labels run it: they stay because the
// suites' subtest names are test IDs.
var connEngineLabels = []string{"goroutine", "epoll"}

// forEachConnEngine runs a test body once per conn-engine label.
func forEachConnEngine(t *testing.T, fn func(t *testing.T)) {
	for _, label := range connEngineLabels {
		t.Run("connengine="+label, fn)
	}
}

// getKeepAlive performs one keep-alive exchange on a raw conn, leaving
// the connection open and idle.
func getKeepAlive(t *testing.T, nc net.Conn, br *bufio.Reader, path string) *rawResponse {
	t.Helper()
	if _, err := nc.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := readResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestConnEngineStatsGauges checks the open/idle connection gauges: a
// parked keep-alive conn shows up as open and idle,
// and closes drop the gauge back to zero.
func TestConnEngineStatsGauges(t *testing.T) { forEachConnEngine(t, testConnEngineStatsGauges) }

func testConnEngineStatsGauges(t *testing.T) {
	s, base := newTestServer(t, nil)

	conns := make([]net.Conn, 0, 4)
	defer func() {
		for _, nc := range conns {
			nc.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		nc := dialRaw(t, base)
		conns = append(conns, nc)
		getKeepAlive(t, nc, bufio.NewReader(nc), "/hello.txt")
	}

	// All four conns are now idle between exchanges.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := s.Stats()
		if st.OpenConns == 4 && st.IdleConns == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges: open=%d idle=%d, want 4/4", st.OpenConns, st.IdleConns)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, nc := range conns {
		nc.Close()
	}
	conns = conns[:0]
	deadline = time.Now().Add(2 * time.Second)
	for {
		st := s.Stats()
		if st.OpenConns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges after close: open=%d, want 0", st.OpenConns)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownClosesIdle: keep-alive connections parked between
// requests — nothing in flight, nothing unwritten, no partial head —
// close as soon as Shutdown begins, rather than holding the drain
// until their IdleTimeout or the Shutdown timeout.
func TestShutdownClosesIdle(t *testing.T) {
	s, base := newTestServer(t, func(cfg *Config) { cfg.EventLoops = 2 })
	conns := make([]net.Conn, 4)
	for i := range conns {
		conns[i] = dialRaw(t, base)
		getKeepAlive(t, conns[i], bufio.NewReader(conns[i]), "/hello.txt")
	}

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(10 * time.Second) }()

	// The server should close every idle conn: the next read sees EOF,
	// not its deadline.
	for _, nc := range conns {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("idle conn still open after Shutdown: %v", err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("Shutdown took %v; idle conns should close promptly", el)
	}
}

// TestShutdownServesPartialHead: a connection with part of a request
// head buffered when Shutdown begins is not idle. It stays open, and
// once the rest of the head arrives the request is answered — with the
// 503 every request that starts after Shutdown draws — and the
// connection closes.
func TestShutdownServesPartialHead(t *testing.T) {
	s, base := newTestServer(t, nil)
	nc := dialRaw(t, base)
	var c *conn
	waitFor(t, "the connection to park", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for sc := range s.conns {
			c = sc
		}
		return c != nil && c.parked.Load() == connParked
	})
	if _, err := io.WriteString(nc, "GET /hello.txt HTTP/1.1\r\nHo"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the partial head to be read", func() bool { return c.parked.Load() == connActive })

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(10 * time.Second) }()
	waitFor(t, "Shutdown to begin", s.stopping.Load)
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := nc.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with a partial head closed by Shutdown: %v", err)
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(nc, "st: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	resp, err := readResponse(br, "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 503 || !strings.EqualFold(resp.headers["connection"], "close") {
		t.Fatalf("response: status %d, Connection %q; want 503, close", resp.status, resp.headers["connection"])
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the response: %v, want EOF", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}

// TestSendfileStalledClientReset: a client stops reading mid-sendfile,
// so the transmit blocks with the descriptor pinned, and then resets
// the connection. The server must fail the exchange, tear the
// connection down and release the pin, and keep serving other clients
// full bodies.
func TestSendfileStalledClientReset(t *testing.T) {
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.SendfileThreshold = 1 // every static body ships via sendfile
	})
	addr := strings.TrimPrefix(base, "http://")

	// A stalled client: request the 300 KB body, read nothing. The
	// socket buffers fill and the transmit blocks mid-sendfile.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10) // shrink the window so the stall is quick
	}
	if _, err := stalled.Write([]byte("GET /big.bin HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the server's write block

	// Slam the door: RST while the write is blocked with its pin held.
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	stalled.Close()

	// The server must notice, fail the exchange, and release the pin;
	// other clients keep getting full responses.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/big.bin")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != 300<<10 {
			t.Fatalf("body = %d bytes, want %d", len(body), 300<<10)
		}
		if s.Stats().OpenConns <= 1 {
			break // the stalled conn has been torn down
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled conn never closed: open=%d", s.Stats().OpenConns)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestIdleConnFootprint logs the heap+stack cost of an idle keep-alive
// connection — its goroutine's stack and buffers — so CI prints it on
// every run, one line per conn-engine label. Informational: no
// assertion — absolute bytes swing with the Go version's stack sizing.
func TestIdleConnFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint sampling")
	}
	const fleet = 500
	for _, label := range connEngineLabels {
		t.Run("connengine="+label, func(t *testing.T) {
			_, base := newTestServer(t, func(cfg *Config) { cfg.EventLoops = 1 })

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			conns := make([]net.Conn, 0, fleet)
			defer func() {
				for _, nc := range conns {
					nc.Close()
				}
			}()
			for i := 0; i < fleet; i++ {
				nc := dialRaw(t, base)
				conns = append(conns, nc)
				getKeepAlive(t, nc, bufio.NewReader(nc), "/hello.txt")
			}
			time.Sleep(50 * time.Millisecond)
			runtime.GC()
			runtime.ReadMemStats(&after)
			perConn := (int64(after.HeapInuse+after.StackInuse) -
				int64(before.HeapInuse+before.StackInuse)) / fleet
			t.Logf("%s: ~%d B heap+stack per idle conn (%d conns)", label, perConn, fleet)
		})
	}
}
