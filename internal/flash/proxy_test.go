package flash

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/upstream"
)

// forEachProxyMatrix runs fn once per (conn engine × chunk path)
// combination. The flattened subtest name keeps "proxy" at the second
// level, so CI's `-run '/proxy'` race step selects exactly this suite
// — and the engine name stays in the label, so the epoll step
// (`/connengine=epoll`) covers it too. Origin refills publish heap
// chunks on either chunk path, so the pair differs in nothing this
// suite exercises; it stays only because its labels are test IDs.
func forEachProxyMatrix(t *testing.T, fn func(t *testing.T)) {
	for _, ce := range connEngines() {
		for _, path := range chunkPaths {
			t.Run(fmt.Sprintf("proxy-connengine=%s-engine=%s", ce, path), func(t *testing.T) {
				prev := testConnEngine
				testConnEngine = ce
				defer func() { testConnEngine = prev }()
				useChunkPath(t, path)
				fn(t)
			})
		}
	}
}

// testOriginServer is a counting HTTP origin built on net/http: the
// proxy under test is the system being proven, so the origin leg uses
// the stdlib as an independent implementation.
type testOriginServer struct {
	t       *testing.T
	srv     *http.Server
	addr    string
	fetches atomic.Int64 // full-body (non-304) responses served
	notMods atomic.Int64 // 304 revalidation responses served

	mu      sync.Mutex
	handler http.HandlerFunc
}

func newTestOrigin(t *testing.T, handler http.HandlerFunc) *testOriginServer {
	t.Helper()
	o := &testOriginServer{t: t, handler: handler}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o.addr = l.Addr().String()
	o.srv = &http.Server{Handler: http.HandlerFunc(o.serve)}
	go o.srv.Serve(l)
	t.Cleanup(func() { o.srv.Close() })
	return o
}

func (o *testOriginServer) serve(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	h := o.handler
	o.mu.Unlock()
	h(w, r)
}

func (o *testOriginServer) setHandler(h http.HandlerFunc) {
	o.mu.Lock()
	o.handler = h
	o.mu.Unlock()
}

// kill closes the origin's listener and every open connection, so
// in-flight keep-alive conns die too (not just future dials).
func (o *testOriginServer) kill() { o.srv.Close() }

// cachedOrigin answers every path with a deterministic body and strong
// validators, counting full fetches and 304s.
func (o *testOriginServer) cachedOrigin(bodyFor func(path string) []byte, cacheControl string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		etag := fmt.Sprintf(`"v1-%d"`, len(r.URL.Path))
		if r.Header.Get("If-None-Match") == etag {
			o.notMods.Add(1)
			w.Header().Set("ETag", etag)
			if cacheControl != "" {
				w.Header().Set("Cache-Control", cacheControl)
			}
			w.WriteHeader(304)
			return
		}
		o.fetches.Add(1)
		body := bodyFor(r.URL.Path)
		w.Header().Set("ETag", etag)
		w.Header().Set("Content-Type", "application/x-test")
		if cacheControl != "" {
			w.Header().Set("Cache-Control", cacheControl)
		}
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		w.Write(body)
	}
}

// newProxyServer starts a flash server with pool mounted at /up/ via
// HandleProxy, plus a dedicated keep-alive HTTP client.
func newProxyServer(t *testing.T, pool *upstream.Pool) (*Server, string, *http.Client) {
	t.Helper()
	srv, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 4
	}, func(s *Server) {
		s.HandleProxy("/up/", pool)
	})
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	return srv, base, client
}

func testPoolFor(t *testing.T, addrs ...string) *upstream.Pool {
	t.Helper()
	pool, err := upstream.New(upstream.Config{
		Backends:      addrs,
		DialTimeout:   2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

func clientGet(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestProxyWarmHit proves the basic cache cycle: one origin fetch
// serves many client requests (including HEAD and client-side 304s)
// while the entry is fresh.
func TestProxyWarmHit(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		want := pattern(150 << 10) // 3 chunks: exercises the chunk walk
		origin := newTestOrigin(t, nil)
		origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "max-age=60"))
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr))

		var etag string
		for i := 0; i < 6; i++ {
			resp, body := clientGet(t, client, base+"/up/data")
			if resp.StatusCode != 200 || !strings.EqualFold(resp.Header.Get("Content-Type"), "application/x-test") {
				t.Fatalf("GET %d: status %d type %q", i, resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			if string(body) != string(want) {
				t.Fatalf("GET %d: body mismatch (%d bytes)", i, len(body))
			}
			etag = resp.Header.Get("Etag")
		}
		if n := origin.fetches.Load(); n != 1 {
			t.Fatalf("origin fetches = %d, want 1", n)
		}

		// HEAD from the warm cache: full metadata, no body.
		req, _ := http.NewRequest("HEAD", base+"/up/data", nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.ContentLength != int64(len(want)) {
			t.Fatalf("HEAD: status %d CL %d, want 200 %d", resp.StatusCode, resp.ContentLength, len(want))
		}

		// Client-side conditional: a 304 with zero origin traffic.
		req, _ = http.NewRequest("GET", base+"/up/data", nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 304 {
			t.Fatalf("conditional GET: status %d, want 304", resp.StatusCode)
		}
		if n := origin.fetches.Load(); n != 1 {
			t.Fatalf("origin fetches after HEAD+304 = %d, want 1", n)
		}

		st := srv.Stats()
		if st.ProxyRequests < 8 || st.ProxyHits < 1 || st.ProxyFills != 1 {
			t.Fatalf("stats: requests=%d hits=%d fills=%d", st.ProxyRequests, st.ProxyHits, st.ProxyFills)
		}
	})
}

// TestProxyCoalescing is the counting-origin acceptance test: N
// concurrent cold requests — spread across shards — cost exactly one
// origin fetch, with every client serving while the fill streams.
func TestProxyCoalescing(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		want := pattern(150 << 10)
		origin := newTestOrigin(t, nil)
		inner := origin.cachedOrigin(func(string) []byte { return want }, "max-age=60")
		origin.setHandler(func(w http.ResponseWriter, r *http.Request) {
			// Hold the response long enough for every concurrent miss to
			// arrive and park on the single-flight fetch.
			time.Sleep(150 * time.Millisecond)
			inner(w, r)
		})
		_, base, client := newProxyServer(t, testPoolFor(t, origin.addr))

		const n = 20
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := client.Get(base + "/up/cold")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 || string(body) != string(want) {
					errs <- fmt.Errorf("status %d, %d body bytes", resp.StatusCode, len(body))
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if n := origin.fetches.Load(); n != 1 {
			t.Fatalf("origin fetches = %d, want exactly 1 for %d concurrent misses", n, 20)
		}
	})
}

// TestProxyRevalidate proves the stale-hit cycle: a TTL-0 entry
// revalidates with If-None-Match, a 304 refreshes it without moving
// the body, and a changed origin answer replaces it.
func TestProxyRevalidate(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		v1 := []byte("first version of the resource\n")
		origin := newTestOrigin(t, nil)
		// no-cache: storable, but every hit revalidates.
		origin.setHandler(origin.cachedOrigin(func(string) []byte { return v1 }, "no-cache"))
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr))

		if _, body := clientGet(t, client, base+"/up/doc"); string(body) != string(v1) {
			t.Fatalf("cold GET: %q", body)
		}
		// The coarse shard clock (100ms tick) must pass the entry's
		// expiry before the next request sees it as stale.
		time.Sleep(150 * time.Millisecond)
		if _, body := clientGet(t, client, base+"/up/doc"); string(body) != string(v1) {
			t.Fatalf("revalidated GET: %q", body)
		}
		if f, nm := origin.fetches.Load(), origin.notMods.Load(); f != 1 || nm != 1 {
			t.Fatalf("origin fetches=%d notModified=%d, want 1/1 (304 must not refetch the body)", f, nm)
		}
		if st := srv.Stats(); st.ProxyRevalidated != 1 {
			t.Fatalf("ProxyRevalidated = %d, want 1", st.ProxyRevalidated)
		}

		// Origin content changes (new ETag): the next revalidation gets
		// a 200 and the cache serves the new bytes.
		v2 := pattern(100 << 10)
		origin.setHandler(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("If-None-Match") == `"v2"` {
				origin.notMods.Add(1)
				w.WriteHeader(304)
				return
			}
			origin.fetches.Add(1)
			w.Header().Set("ETag", `"v2"`)
			w.Header().Set("Cache-Control", "no-cache")
			w.Header().Set("Content-Length", fmt.Sprint(len(v2)))
			w.Write(v2)
		})
		time.Sleep(150 * time.Millisecond)
		if _, body := clientGet(t, client, base+"/up/doc"); string(body) != string(v2) {
			t.Fatalf("post-change GET: %d bytes, want %d", len(body), len(v2))
		}
	})
}

// TestProxyBreakerFailover is the kill-a-backend acceptance test: with
// one backend dead, every request still answers 200 off the survivor
// (retry-on-idempotent bridges the window until the breaker opens),
// and the dead backend's breaker is open in the stats.
func TestProxyBreakerFailover(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		body := []byte("served by a survivor\n")
		mk := func() *testOriginServer {
			o := newTestOrigin(t, nil)
			o.setHandler(o.cachedOrigin(func(string) []byte { return body }, "max-age=60"))
			return o
		}
		a, b := mk(), mk()
		pool := testPoolFor(t, a.addr, b.addr)
		srv, base, client := newProxyServer(t, pool)

		// Warm both backends, then kill one.
		for i := 0; i < 4; i++ {
			if resp, _ := clientGet(t, client, fmt.Sprintf("%s/up/warm-%d", base, i)); resp.StatusCode != 200 {
				t.Fatalf("warm GET %d: %d", i, resp.StatusCode)
			}
		}
		a.kill()

		// Unique targets force origin fetches (no cache rescue): every
		// one must still answer 200 — the retry path bridges failures
		// until the breaker opens, then picks skip the corpse.
		for i := 0; i < 20; i++ {
			resp, got := clientGet(t, client, fmt.Sprintf("%s/up/after-kill-%d", base, i))
			if resp.StatusCode != 200 || string(got) != string(body) {
				t.Fatalf("GET %d after kill: status %d", i, resp.StatusCode)
			}
		}
		// Probe window passes (probes keep failing against the corpse);
		// traffic must stay clean.
		time.Sleep(200 * time.Millisecond)
		for i := 0; i < 5; i++ {
			if resp, _ := clientGet(t, client, fmt.Sprintf("%s/up/post-probe-%d", base, i)); resp.StatusCode != 200 {
				t.Fatalf("GET %d post-probe: %d", i, resp.StatusCode)
			}
		}
		if st := srv.Stats(); st.ProxyErrors != 0 {
			t.Fatalf("ProxyErrors = %d, want 0 (zero 5xx with a survivor up)", st.ProxyErrors)
		}

		ps := srv.ProxyStats()
		if len(ps) != 1 || ps[0].Prefix != "/up/" {
			t.Fatalf("ProxyStats = %+v", ps)
		}
		var dead, live *upstream.BackendStats
		for i := range ps[0].Pool.Backends {
			bs := &ps[0].Pool.Backends[i]
			if bs.Addr == a.addr {
				dead = bs
			} else {
				live = bs
			}
		}
		if dead == nil || live == nil {
			t.Fatalf("backend stats missing: %+v", ps[0].Pool.Backends)
		}
		if dead.Breaker == "closed" || dead.Failures == 0 {
			t.Fatalf("dead backend: breaker=%s failures=%d, want tripped", dead.Breaker, dead.Failures)
		}
		if live.Retries == 0 {
			t.Fatalf("survivor retries = 0, want failover traffic")
		}
	})
}

// TestProxyPassThrough covers the shapes the cache refuses: no-store,
// chunked (unknown-length) responses, and methods with bodies — all
// relayed verbatim, none cached.
func TestProxyPassThrough(t *testing.T) {
	setConnEngine(t, ConnEngineGoroutine)
	origin := newTestOrigin(t, nil)
	origin.setHandler(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST":
			in, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Length", fmt.Sprint(len(in)+6))
			w.Write(append([]byte("echo: "), in...))
		case strings.HasSuffix(r.URL.Path, "/nostore"):
			origin.fetches.Add(1)
			w.Header().Set("Cache-Control", "no-store")
			w.Header().Set("Content-Length", "14")
			w.Write([]byte("private bytes\n"))
		default: // chunked: flush before the body completes
			origin.fetches.Add(1)
			w.Write([]byte("part one…"))
			w.(http.Flusher).Flush()
			w.Write([]byte(" and part two"))
		}
	})
	srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr))

	// no-store: correct bytes, never cached (origin hit every time).
	for i := 0; i < 2; i++ {
		if _, body := clientGet(t, client, base+"/up/nostore"); string(body) != "private bytes\n" {
			t.Fatalf("no-store GET %d: %q", i, body)
		}
	}
	if n := origin.fetches.Load(); n != 2 {
		t.Fatalf("no-store origin fetches = %d, want 2 (must not cache)", n)
	}

	// Chunked origin body (no Content-Length): relayed intact.
	if _, body := clientGet(t, client, base+"/up/chunky"); string(body) != "part one… and part two" {
		t.Fatalf("chunked GET: %q", body)
	}

	// POST: body forwarded, response echoed.
	resp, err := client.Post(base+"/up/submit", "text/plain", strings.NewReader("hello origin"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "echo: hello origin" {
		t.Fatalf("POST: status %d body %q", resp.StatusCode, body)
	}

	if st := srv.Stats(); st.ProxyPassThrough < 4 {
		t.Fatalf("ProxyPassThrough = %d, want >= 4", st.ProxyPassThrough)
	}
}

// TestProxyAllBackendsDown proves the error verdicts: with every
// backend dead the shed is a clean 502, counted, and the server (and
// its static routes) stay healthy.
func TestProxyAllBackendsDown(t *testing.T) {
	setConnEngine(t, ConnEngineGoroutine)
	// An address that refuses connections: bind, note the port, close.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	srv, base, client := newProxyServer(t, testPoolFor(t, deadAddr))
	for i := 0; i < 3; i++ {
		resp, _ := clientGet(t, client, fmt.Sprintf("%s/up/x-%d", base, i))
		if resp.StatusCode != 502 {
			t.Fatalf("GET %d: status %d, want 502", i, resp.StatusCode)
		}
	}
	if st := srv.Stats(); st.ProxyErrors == 0 {
		t.Fatalf("ProxyErrors = 0, want > 0")
	}
	// The rest of the server is unaffected.
	if resp, _ := clientGet(t, client, base+"/hello.txt"); resp.StatusCode != 200 {
		t.Fatalf("static GET alongside dead pool: %d", resp.StatusCode)
	}
}

// TestProxyUncacheableConcurrent drives concurrent misses on an
// uncacheable target: the first waiter adopts the live response, the
// rest relay their own fetch — everyone gets correct bytes.
func TestProxyUncacheableConcurrent(t *testing.T) {
	setConnEngine(t, ConnEngineGoroutine)
	origin := newTestOrigin(t, nil)
	origin.setHandler(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		origin.fetches.Add(1)
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("Content-Length", "9")
		w.Write([]byte("ephemeral"))
	})
	_, base, client := newProxyServer(t, testPoolFor(t, origin.addr))

	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(base + "/up/live")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 || string(body) != "ephemeral" {
				errs <- fmt.Errorf("status %d body %q", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := origin.fetches.Load(); n < 1 {
		t.Fatalf("origin fetches = %d", n)
	}
}
