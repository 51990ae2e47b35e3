package flash

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
)

// churnClient is a connection-per-request client made of raw system
// calls — socket, connect, write, read to EOF, close — so that its side
// of a measurement allocates nothing and every malloc counted is the
// server's.
type churnClient struct {
	sa   syscall.SockaddrInet4
	req  []byte
	buf  []byte
	tv   syscall.Timeval
	want int // bytes of one response, learned on the first exchange
}

func newChurnClient(t testing.TB, addr string, req string) *churnClient {
	t.Helper()
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &churnClient{req: []byte(req), buf: make([]byte, 64<<10), tv: syscall.Timeval{Sec: 10}}
	c.sa.Port = ta.Port
	copy(c.sa.Addr[:], ta.IP.To4())
	return c
}

// get runs one exchange on a fresh connection and checks that the
// response is a 200 of the length the first one had.
func (c *churnClient) get(t testing.TB) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &c.tv); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Connect(fd, &c.sa); err != nil {
		t.Fatal(err)
	}
	if _, err := syscall.Write(fd, c.req); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		m, err := syscall.Read(fd, c.buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if m == 0 {
			break
		}
		n += m
	}
	if !bytes.HasPrefix(c.buf[:n], []byte("HTTP/1.1 200 ")) {
		t.Fatalf("response: %q", c.buf[:min(n, 64)])
	}
	if c.want == 0 {
		c.want = n
	} else if n != c.want {
		t.Fatalf("response of %d bytes, want %d", n, c.want)
	}
}

// TestAllocsConnChurn bounds what a new connection costs the heap: one
// Connection: close GET of a cached file, each on a fresh connection,
// through a listener built the way ListenAndServe builds it. The
// connection goroutine and its read ring are reused, so what is left
// (18 allocations, ~2.6 KB on go1.24) is per-connection state — the
// conn record with its reply and done channels (4), the head buffer,
// header arena, pin FIFO and chunk-run scratch (5) — and what the net
// package builds: the descriptor, the conn and both addresses on
// accept (6), the iovec cache of the first writev (3).
func TestAllocsConnChurn(t *testing.T) {
	const (
		warmup   = 200
		measured = 2000
		maxAlloc = 20   // allocations per connection
		maxBytes = 3000 // bytes allocated per connection
	)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f.html"), bytes.Repeat([]byte("x"), 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DocRoot: root, EventLoops: 1, RevalidateInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	c := newChurnClient(t, l.Addr().String(), "GET /f.html HTTP/1.1\r\nHost: churn\r\nConnection: close\r\n\r\n")
	settle := func() {
		waitFor(t, "every connection to be unregistered", func() bool { return s.Active() == 0 })
	}
	for i := 0; i < warmup; i++ {
		c.get(t)
	}
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		c.get(t)
	}
	settle()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("new connection: %.1f allocs, %.0f B (%d connections)", allocs, bytesPer, measured)
	if allocs > maxAlloc || bytesPer > maxBytes {
		t.Errorf("new connection: %.1f allocs and %.0f B, want at most %d and %d B",
			allocs, bytesPer, maxAlloc, maxBytes)
	}
}
