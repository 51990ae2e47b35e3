package flash

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testConnEngine is the connection engine newTestServer (and the other
// test-server constructors) pass to Config. forEachConnEngine swaps it
// per subtest; the package default mirrors Config's default. Tests in
// this package never run in parallel, so a plain global is safe.
var testConnEngine = ConnEngineGoroutine

// connEngines lists the engines available on this platform.
func connEngines() []string {
	engines := []string{ConnEngineGoroutine}
	if epollSupported {
		engines = append(engines, ConnEngineEpoll)
	}
	return engines
}

// forEachConnEngine runs a test body once per available connection
// engine — the conn-level mirror of forEachChunkPath. Every suite routed
// through it asserts the engines are byte-identical on the wire: the
// readiness state machine may never change protocol behavior.
func forEachConnEngine(t *testing.T, fn func(t *testing.T)) {
	for _, engine := range connEngines() {
		t.Run("connengine="+engine, func(t *testing.T) {
			prev := testConnEngine
			testConnEngine = engine
			defer func() { testConnEngine = prev }()
			fn(t)
		})
	}
}

// setConnEngine forces one engine for a single test, restoring the
// package default on cleanup.
func setConnEngine(t *testing.T, engine string) {
	t.Helper()
	prev := testConnEngine
	testConnEngine = engine
	t.Cleanup(func() { testConnEngine = prev })
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

// TestConnEngineConfig checks the ConnEngine knob's validation.
func TestConnEngineConfig(t *testing.T) {
	root := t.TempDir()
	cfg, err := Config{DocRoot: root}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ConnEngine != ConnEngineGoroutine {
		t.Fatalf("default ConnEngine = %q, want %q", cfg.ConnEngine, ConnEngineGoroutine)
	}
	if _, err := (Config{DocRoot: root, ConnEngine: "threads"}).withDefaults(); err == nil {
		t.Fatal("bad ConnEngine accepted")
	}
	for _, engine := range connEngines() {
		if _, err := (Config{DocRoot: root, ConnEngine: engine}).withDefaults(); err != nil {
			t.Fatalf("ConnEngine %q rejected: %v", engine, err)
		}
	}
	if !epollSupported {
		if _, err := (Config{DocRoot: root, ConnEngine: ConnEngineEpoll}).withDefaults(); err != ErrConnEngineUnsupported {
			t.Fatalf("epoll off-linux: err = %v, want ErrConnEngineUnsupported", err)
		}
	}
}

// TestConnEngineStatsGauges checks the open/idle connection gauges both
// engines maintain: a parked keep-alive conn shows up as open and idle,
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

// TestEpollShutdownClosesIdle is the Shutdown drain fix: an idle
// keep-alive conn on the epoll engine has no reader goroutine to see
// the shutdown flag, so Shutdown must close it promptly (well before
// IdleTimeout) instead of hanging until the timer wheel fires.
func TestEpollShutdownClosesIdle(t *testing.T) {
	if !epollSupported {
		t.Skip("epoll engine is linux-only")
	}
	setConnEngine(t, ConnEngineEpoll)

	s, base := newTestServer(t, nil)
	nc := dialRaw(t, base)
	getKeepAlive(t, nc, bufio.NewReader(nc), "/hello.txt")

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(10 * time.Second) }()

	// The server should close the idle conn: the next read sees EOF.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle conn still open after Shutdown")
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
		t.Fatalf("Shutdown took %v; idle epoll conns should close promptly", el)
	}
}

// TestEpollSendfileParkClientClose races a mid-sendfile EAGAIN park
// against a client close: a stalled receiver parks the transmit on
// EPOLLOUT with the descriptor pinned; the client then vanishes. The
// engine must fail the item, release the descriptor pin, and keep
// serving other clients.
func TestEpollSendfileParkClientClose(t *testing.T) {
	if !epollSupported {
		t.Skip("epoll engine is linux-only")
	}
	setConnEngine(t, ConnEngineEpoll)

	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.SendfileThreshold = 1 // every static body ships via sendfile
	})
	addr := strings.TrimPrefix(base, "http://")

	// A stalled client: request the 300 KB body, read nothing. The
	// socket buffers fill and the transmit parks mid-sendfile.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(4 << 10) // shrink the window so the park is quick
	}
	if _, err := stalled.Write([]byte("GET /big.bin HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the server hit EAGAIN and park

	// Slam the door: RST while the item is parked with its pin held.
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

// TestEpollIdleConnsNoGoroutines is the engine's reason to exist: a
// fleet of idle keep-alive conns must hold no per-conn goroutines.
func TestEpollIdleConnsNoGoroutines(t *testing.T) {
	if !epollSupported {
		t.Skip("epoll engine is linux-only")
	}
	setConnEngine(t, ConnEngineEpoll)

	_, base := newTestServer(t, func(cfg *Config) { cfg.EventLoops = 2 })

	before := runtime.NumGoroutine()
	const fleet = 200
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
	// Parked per-conn goroutines would show up here; allow slack for
	// the runtime's own churn (helpers, timers).
	after := runtime.NumGoroutine()
	if grew := after - before; grew > fleet/4 {
		t.Fatalf("goroutines grew by %d across %d idle conns; epoll conns must not hold goroutines", grew, fleet)
	}
}

// TestIdleConnFootprint logs the per-idle-conn heap+stack cost of each
// engine, so CI prints the comparison on every run. Informational: no
// assertion — absolute bytes swing with the Go version's stack sizing.
func TestIdleConnFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint sampling")
	}
	const fleet = 500
	for _, engine := range connEngines() {
		t.Run("connengine="+engine, func(t *testing.T) {
			setConnEngine(t, engine)
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
			t.Logf("%s: ~%d B heap+stack per idle conn (%d conns)", engine, perConn, fleet)
		})
	}
}
