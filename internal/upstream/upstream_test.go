package upstream

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpmsg"
)

// testOrigin is a minimal keep-alive HTTP/1.1 origin: it reads request
// heads and answers with whatever respond returns, counting
// connections and requests.
type testOrigin struct {
	l        net.Listener
	conns    atomic.Int64
	requests atomic.Int64
	respond  func(reqNum int64, method, target string) string

	mu   sync.Mutex
	open map[net.Conn]struct{}
}

// kill closes the listener and every accepted connection, simulating a
// crashed backend (a bare l.Close() would leave pooled keep-alive
// connections happily serving).
func (o *testOrigin) kill() {
	o.l.Close()
	o.mu.Lock()
	for c := range o.open {
		c.Close()
	}
	o.mu.Unlock()
}

func newTestOrigin(t *testing.T, respond func(reqNum int64, method, target string) string) *testOrigin {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := &testOrigin{l: l, respond: respond, open: map[net.Conn]struct{}{}}
	go o.serve()
	t.Cleanup(o.kill)
	return o
}

func (o *testOrigin) addr() string { return o.l.Addr().String() }

func (o *testOrigin) serve() {
	for {
		c, err := o.l.Accept()
		if err != nil {
			return
		}
		o.conns.Add(1)
		o.mu.Lock()
		o.open[c] = struct{}{}
		o.mu.Unlock()
		go func() {
			defer func() {
				c.Close()
				o.mu.Lock()
				delete(o.open, c)
				o.mu.Unlock()
			}()
			br := bufio.NewReader(c)
			for {
				var head []byte
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					head = append(head, line...)
					if end := httpmsg.HeaderEnd(head); end >= 0 {
						break
					}
				}
				fields := strings.Fields(strings.SplitN(string(head), "\r\n", 2)[0])
				if len(fields) < 2 {
					return
				}
				n := o.requests.Add(1)
				resp := o.respond(n, fields[0], fields[1])
				if resp == "" {
					return // simulate an origin that hangs up
				}
				if _, err := c.Write([]byte(resp)); err != nil {
					return
				}
				if strings.Contains(resp, "Connection: close") {
					return
				}
			}
		}()
	}
}

func okResponse(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
}

func testPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.ResponseTimeout == 0 {
		cfg.ResponseTimeout = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func get(t *testing.T, p *Pool, target string) (string, *Response) {
	t.Helper()
	resp, err := p.RoundTrip(&Request{Method: "GET", Target: target, Host: "test"})
	if err != nil {
		t.Fatalf("RoundTrip(%s): %v", target, err)
	}
	body, err := io.ReadAll(resp)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(body), resp
}

func TestKeepAliveReuse(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse("hello " + target)
	})
	p := testPool(t, Config{Backends: []string{o.addr()}})

	for i := 0; i < 3; i++ {
		body, resp := get(t, p, "/x")
		if body != "hello /x" {
			t.Fatalf("body = %q", body)
		}
		if err := resp.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.conns.Load(); got != 1 {
		t.Fatalf("origin saw %d connections, want 1 (keep-alive reuse)", got)
	}
	st := p.Stats().Backends[0]
	if st.Dials != 1 || st.Reuses != 2 || st.Requests != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChunkedBodyAndReuse(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"5\r\nhello\r\n7\r\n, world\r\n0\r\n\r\n"
	})
	p := testPool(t, Config{Backends: []string{o.addr()}})

	for i := 0; i < 2; i++ {
		body, resp := get(t, p, "/c")
		if body != "hello, world" {
			t.Fatalf("body = %q", body)
		}
		if resp.ContentLength != -1 {
			t.Fatalf("ContentLength = %d", resp.ContentLength)
		}
		resp.Close()
	}
	if got := o.conns.Load(); got != 1 {
		t.Fatalf("origin saw %d connections, want 1", got)
	}
}

func TestBodyUntilClose(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nraw bytes"
	})
	p := testPool(t, Config{Backends: []string{o.addr()}})

	body, resp := get(t, p, "/raw")
	if body != "raw bytes" {
		t.Fatalf("body = %q", body)
	}
	resp.Close()
	_, resp2 := get(t, p, "/raw")
	resp2.Close()
	if got := o.conns.Load(); got != 2 {
		t.Fatalf("origin saw %d connections, want 2 (close-delimited is not reusable)", got)
	}
}

func TestCloseDrainsSmallRemainder(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse(strings.Repeat("b", 1000))
	})
	p := testPool(t, Config{Backends: []string{o.addr()}})

	// Read nothing; Close must drain and still reuse the connection.
	resp, err := p.RoundTrip(&Request{Method: "GET", Target: "/big", Host: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Close(); err != nil {
		t.Fatal(err)
	}
	_, resp2 := get(t, p, "/big")
	resp2.Close()
	if got := o.conns.Load(); got != 1 {
		t.Fatalf("origin saw %d connections, want 1 (drained reuse)", got)
	}
}

func TestStaleIdleConnRetriesFresh(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse("ok")
	})
	p := testPool(t, Config{Backends: []string{o.addr()}})

	_, resp := get(t, p, "/a")
	resp.Close()
	// Kill the pooled connection server-side; next request must shrug
	// it off with a fresh dial, not a failure.
	o.kill()
	l2, err := net.Listen("tcp", o.addr())
	if err != nil {
		t.Skipf("cannot rebind %s: %v", o.addr(), err)
	}
	o.l = l2
	go o.serve()
	time.Sleep(20 * time.Millisecond) // let the old conn's FIN land

	body, resp2 := get(t, p, "/b")
	if body != "ok" {
		t.Fatalf("body = %q", body)
	}
	resp2.Close()
	st := p.Stats().Backends[0]
	if st.Failures != 0 {
		t.Fatalf("stale keep-alive counted as failure: %+v", st)
	}
}

func TestBreakerTripsAndProbeRecovers(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse("up")
	})
	addr := o.addr()
	p := testPool(t, Config{Backends: []string{addr}, FailThreshold: 3,
		DialTimeout: 200 * time.Millisecond})

	_, resp := get(t, p, "/warm")
	resp.Close()

	o.kill() // crash the backend, pooled conns included
	req := &Request{Method: "GET", Target: "/x", Host: "t"}
	var sawErr int
	for i := 0; i < 10; i++ {
		r, err := p.RoundTrip(req)
		if err == nil {
			r.Close()
			t.Fatal("request succeeded against a dead backend")
		}
		sawErr++
		if p.Stats().Backends[0].Breaker == "open" {
			break
		}
	}
	st := p.Stats().Backends[0]
	if st.Breaker != "open" {
		t.Fatalf("breaker = %q after %d failures", st.Breaker, sawErr)
	}
	// With the breaker open and cooldown not yet elapsed, requests are
	// shed without touching the socket.
	if _, err := p.RoundTrip(req); err != ErrNoHealthyBackend {
		t.Fatalf("shed error = %v, want ErrNoHealthyBackend", err)
	}

	// Revive the backend; the active prober should close the breaker
	// without any request traffic.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	o.l = l2
	go o.serve()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Stats().Backends[0].Breaker == "closed" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.Stats().Backends[0]; st.Breaker != "closed" {
		t.Fatalf("breaker = %q after probe window", st.Breaker)
	}
	body, resp2 := get(t, p, "/back")
	if body != "up" {
		t.Fatalf("body = %q", body)
	}
	resp2.Close()
}

func TestRetryFailsOverToSurvivor(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse("alive")
	})
	// A dead address: a listener we close immediately.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	p := testPool(t, Config{Backends: []string{deadAddr, o.addr()},
		FailThreshold: 2, DialTimeout: 200 * time.Millisecond})

	// Every GET must succeed: hits on the dead backend retry over to
	// the survivor, and once the breaker trips they stop even trying.
	for i := 0; i < 8; i++ {
		body, resp := get(t, p, "/f")
		if body != "alive" {
			t.Fatalf("body = %q", body)
		}
		resp.Close()
	}
	sts := p.Stats().Backends
	if sts[0].Failures == 0 {
		t.Fatalf("dead backend recorded no failures: %+v", sts[0])
	}
	if sts[1].Retries == 0 {
		t.Fatalf("survivor recorded no retries: %+v", sts[1])
	}
}

func TestNonIdempotentNotRetried(t *testing.T) {
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse("alive")
	})
	p := testPool(t, Config{Backends: []string{deadAddr, o.addr()},
		FailThreshold: 100, DialTimeout: 200 * time.Millisecond})

	var failures int
	for i := 0; i < 6; i++ {
		resp, err := p.RoundTrip(&Request{Method: "POST", Target: "/p", Host: "t",
			Body: strings.NewReader("data"), ContentLength: 4})
		if err != nil {
			failures++
			continue
		}
		io.Copy(io.Discard, resp)
		resp.Close()
	}
	if failures == 0 {
		t.Fatal("POSTs to the dead backend should fail rather than retry")
	}
	if r := p.Stats().Backends[1].Retries; r != 0 {
		t.Fatalf("POST was retried %d times", r)
	}
}

func TestResponseTimeoutIsTimeout(t *testing.T) {
	// An origin that accepts and never answers.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			io.Copy(io.Discard, c)
		}
	}()
	p := testPool(t, Config{Backends: []string{l.Addr().String()},
		ResponseTimeout: 50 * time.Millisecond})
	_, err = p.RoundTrip(&Request{Method: "GET", Target: "/slow", Host: "t"})
	if err == nil {
		t.Fatal("expected timeout")
	}
	if !IsTimeout(err) {
		t.Fatalf("IsTimeout(%v) = false", err)
	}
}

func TestHeadHasNoBody(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return "HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n"
	})
	p := testPool(t, Config{Backends: []string{o.addr()}})
	resp, err := p.RoundTrip(&Request{Method: "HEAD", Target: "/h", Host: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != 0 {
		t.Fatalf("HEAD ContentLength = %d", resp.ContentLength)
	}
	if n, err := resp.Read(make([]byte, 8)); n != 0 || err != io.EOF {
		t.Fatalf("HEAD body read = %d, %v", n, err)
	}
	resp.Close()
	// A GET elicits the same head but the origin sends no body bytes;
	// Abandon must not block and must burn the connection.
	resp2, err := p.RoundTrip(&Request{Method: "GET", Target: "/h2", Host: "t"})
	if err != nil {
		t.Fatal(err)
	}
	resp2.Abandon()
	if got := o.conns.Load(); got != 1 {
		t.Fatalf("conns = %d, want 1 (HEAD conn reused for the GET)", got)
	}
	// After the abandon the next request needs a fresh dial.
	resp3, err := p.RoundTrip(&Request{Method: "HEAD", Target: "/h3", Host: "t"})
	if err != nil {
		t.Fatal(err)
	}
	resp3.Close()
	if got := o.conns.Load(); got != 2 {
		t.Fatalf("conns = %d, want 2 (abandoned conn not reusable)", got)
	}
}

func parseResp(t *testing.T, head string) *httpmsg.Response {
	t.Helper()
	r := new(httpmsg.Response)
	if err := r.ParseBytes([]byte(head)); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEvalFreshness(t *testing.T) {
	now := time.Date(1999, 6, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name     string
		head     string
		storable bool
		ttl      time.Duration
	}{
		{"no-store", "HTTP/1.1 200 OK\r\nCache-Control: no-store\r\n\r\n", false, 0},
		{"private", "HTTP/1.1 200 OK\r\nCache-Control: private, max-age=60\r\n\r\n", false, 0},
		{"no-cache", "HTTP/1.1 200 OK\r\nCache-Control: no-cache\r\n\r\n", true, 0},
		{"max-age", "HTTP/1.1 200 OK\r\nCache-Control: max-age=60\r\n\r\n", true, time.Minute},
		{"s-maxage wins", "HTTP/1.1 200 OK\r\nCache-Control: max-age=60, s-maxage=30\r\n\r\n", true, 30 * time.Second},
		{"max-age wins over expires", "HTTP/1.1 200 OK\r\nCache-Control: max-age=10\r\nExpires: Tue, 01 Jun 1999 01:00:00 GMT\r\nDate: Tue, 01 Jun 1999 00:00:00 GMT\r\n\r\n", true, 10 * time.Second},
		{"expires", "HTTP/1.1 200 OK\r\nExpires: Tue, 01 Jun 1999 00:05:00 GMT\r\nDate: Tue, 01 Jun 1999 00:00:00 GMT\r\n\r\n", true, 5 * time.Minute},
		{"expires in past", "HTTP/1.1 200 OK\r\nExpires: Mon, 31 May 1999 00:00:00 GMT\r\nDate: Tue, 01 Jun 1999 00:00:00 GMT\r\n\r\n", true, 0},
		{"invalid expires", "HTTP/1.1 200 OK\r\nExpires: 0\r\n\r\n", true, 0},
		{"heuristic 10pct", "HTTP/1.1 200 OK\r\nDate: Tue, 01 Jun 1999 00:00:00 GMT\r\nLast-Modified: Mon, 31 May 1999 14:00:00 GMT\r\n\r\n", true, time.Hour},
		{"heuristic capped", "HTTP/1.1 200 OK\r\nDate: Tue, 01 Jun 1999 00:00:00 GMT\r\nLast-Modified: Tue, 01 Jun 1979 00:00:00 GMT\r\n\r\n", true, 24 * time.Hour},
		{"no signals", "HTTP/1.1 200 OK\r\n\r\n", true, 0},
		{"304 refresh", "HTTP/1.1 304 Not Modified\r\nCache-Control: max-age=120\r\n\r\n", true, 2 * time.Minute},
		{"5xx not storable", "HTTP/1.1 502 Bad Gateway\r\n\r\n", false, 0},
		{"206 not storable", "HTTP/1.1 206 Partial Content\r\nContent-Range: bytes 0-0/2\r\n\r\n", false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := EvalFreshness(parseResp(t, tc.head), now)
			if f.Storable != tc.storable || f.TTL != tc.ttl {
				t.Fatalf("EvalFreshness = %+v, want storable=%v ttl=%v", f, tc.storable, tc.ttl)
			}
		})
	}
}

func TestPoolCloseIdlesConns(t *testing.T) {
	o := newTestOrigin(t, func(n int64, method, target string) string {
		return okResponse("x")
	})
	p, err := New(Config{Backends: []string{o.addr()}, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, resp := get(t, p, "/a")
	resp.Close()
	p.Close()
	if _, err := p.RoundTrip(&Request{Method: "GET", Target: "/b", Host: "t"}); err != ErrPoolClosed {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}
