package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/upstream"
)

// forEachProxyMatrix runs fn once per (conn-engine label × chunk path)
// combination, under the TestProxy tests CI's reverse-proxy race step
// selects. Origin refills publish heap chunks on either chunk path,
// and both conn-engine labels run the one connection driver, so the
// matrix differs in nothing this suite exercises; it stays only
// because its labels are test IDs.
func forEachProxyMatrix(t *testing.T, fn func(t *testing.T)) {
	for _, ce := range connEngineLabels {
		for _, path := range chunkPaths {
			t.Run(fmt.Sprintf("proxy-connengine=%s-engine=%s", ce, path), func(t *testing.T) {
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

// newProxyServer starts a flash server with four loops (further
// adjusted by mutate, if any) and pool mounted at /up/ via HandleProxy,
// plus a dedicated keep-alive HTTP client.
func newProxyServer(t *testing.T, pool *upstream.Pool, mutate ...func(*Config)) (*Server, string, *http.Client) {
	t.Helper()
	srv, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 4
		for _, fn := range mutate {
			fn(cfg)
		}
	}, func(s *Server) {
		s.HandleProxy("/up/", pool)
	})
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	return srv, base, client
}

// advancingClock is a Config.Clock that runs with the wall clock plus
// a skew the test advances: an entry's expiry or a stale-serve holdoff
// passes without a sleep.
type advancingClock struct{ skew atomic.Int64 }

func (ck *advancingClock) now() time.Time {
	return time.Now().Add(time.Duration(ck.skew.Load()))
}

func (ck *advancingClock) advance(d time.Duration) { ck.skew.Add(int64(d)) }

// install makes ck the server's clock (a newProxyServer mutator).
func (ck *advancingClock) install(cfg *Config) { cfg.Clock = ck.now }

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

// getConcurrently starts n GETs of url and returns a wait that fails
// the test unless every one answered 200 with want.
func getConcurrently(t *testing.T, client *http.Client, url string, n int, want []byte) (wait func()) {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(url)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
			} else if resp.StatusCode != 200 || !bytes.Equal(body, want) {
				errs <- fmt.Errorf("status %d, %d body bytes", resp.StatusCode, len(body))
			}
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
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

// holdFirstExchange holds the first origin exchange at
// upstream/read-head until the returned release runs (or the test
// ends).
func holdFirstExchange(t *testing.T) (release func()) {
	hold, _, release := gateOnce(t)
	failpoint.Arm("upstream/read-head", func(...any) error {
		hold()
		return nil
	})
	t.Cleanup(func() { failpoint.Disarm("upstream/read-head") })
	return release
}

// TestProxyCoalescing is the counting-origin acceptance test: N
// concurrent cold requests — spread across shards — cost exactly one
// origin fetch, with every client serving while the fill streams. The
// first origin exchange is held at upstream/read-head until all N
// requests have reached the proxy, so no timing decides whether they
// coalesce. A failure says which fetch was extra, from the proxy's own
// counters: every origin exchange is a fill, the ones that fetched an
// entry count as a ProxyFill or a ProxyRevalidated, and every other
// fill is a body refill of a chunk walk.
func TestProxyCoalescing(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		want := pattern(150 << 10)
		origin := newTestOrigin(t, nil)
		origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "max-age=60"))
		release := holdFirstExchange(t)
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr))
		t.Cleanup(release) // before Close: a held helper would wedge it

		const n = 20
		wait := getConcurrently(t, client, base+"/up/cold", n, want)
		waitFor(t, "every request at the proxy", func() bool { return srv.Stats().ProxyRequests == n })
		release()
		wait()
		st := srv.Stats()
		metadata := st.ProxyFills + st.ProxyRevalidated
		refills := st.Fills.Started - metadata
		if f := origin.fetches.Load(); f != 1 || metadata != 1 || refills != 0 {
			t.Fatalf("origin fetches = %d (metadata %d, body refills %d), want exactly 1 metadata fetch for %d concurrent misses",
				f, metadata, refills, n)
		}
	})
}

// TestProxyEntrySharedByLoops: a key's entry lives in its segment, not
// in a loop's path cache, so after one cold GET a new connection on
// each of the four loops hits it — one origin fetch in all.
func TestProxyEntrySharedByLoops(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		want := pattern(150 << 10)
		origin := newTestOrigin(t, nil)
		origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "max-age=60"))
		srv, base, _ := newProxyServer(t, testPoolFor(t, origin.addr))
		oneShot := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

		for i := 0; i <= srv.NumShards(); i++ { // accepts go round-robin
			if resp, body := clientGet(t, oneShot, base+"/up/shared"); resp.StatusCode != 200 || !bytes.Equal(body, want) {
				t.Fatalf("GET %d: status %d, %d body bytes", i, resp.StatusCode, len(body))
			}
		}
		for i, ss := range srv.ShardStats() {
			if ss.ProxyRequests == 0 {
				t.Fatalf("loop %d saw no request", i)
			}
		}
		if f, st := origin.fetches.Load(), srv.Stats(); f != 1 || st.ProxyHits != uint64(srv.NumShards()) {
			t.Fatalf("origin fetches = %d, hits = %d; want 1 fetch and a hit on every loop", f, st.ProxyHits)
		}
	})
}

// TestProxyRevalidationCoalesces: an expired no-cache key wanted by 20
// concurrent requests on four loops costs one conditional request. The
// revalidation is held at upstream/read-head until all of them are at
// the proxy, so every one finds its fill in flight.
func TestProxyRevalidationCoalesces(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		want := pattern(150 << 10)
		origin := newTestOrigin(t, nil)
		origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "no-cache"))
		clock := new(advancingClock)
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr), clock.install)
		if _, body := clientGet(t, client, base+"/up/doc"); !bytes.Equal(body, want) {
			t.Fatalf("cold GET: %d body bytes", len(body))
		}
		clock.advance(time.Second) // past the entry's expiry
		release := holdFirstExchange(t)

		const n = 20
		wait := getConcurrently(t, client, base+"/up/doc", n, want)
		waitFor(t, "every request at the proxy", func() bool { return srv.Stats().ProxyRequests == n+1 })
		release()
		wait()
		if f, nm := origin.fetches.Load(), origin.notMods.Load(); f != 1 || nm != 1 {
			t.Fatalf("origin fetches=%d notModified=%d, want 1/1: one conditional request for %d requests", f, nm, n)
		}
		for i, ss := range srv.ShardStats() {
			if ss.ProxyRequests == 0 {
				t.Fatalf("loop %d saw no request", i)
			}
		}
	})
}

// TestProxyInvalidateKeepsNewerEntry: a walk of generation 1 that fails
// after generation 2 became the key's entry must drop generation 1 only.
// Response S (the cold request) sends its first chunk of generation 1
// while the origin holds back the rest of the body, and that first run
// is held at the socket; the fill then completes and, with a one-byte
// budget, the rest of the chunks leave the cache. The entry expires,
// the origin changes, and HEAD R's revalidation is held at
// upstream/read-head while S's walk resumes, misses and meets R's fill
// before it announces. R announces generation 2; S, whose bytes are
// gone, is cut short. A second HEAD hits generation 2: two origin
// exchanges in all, none for S's failure. (HEADs walk no chunks, so the
// budget costs them no refill.)
func TestProxyInvalidateKeepsNewerEntry(t *testing.T) {
	gen1 := pattern(600 << 10) // ten chunks
	gen2 := bytes.Repeat([]byte("generation two\n"), 1000)
	restOfGen1 := make(chan struct{})
	sendRest := sync.OnceFunc(func() { close(restOfGen1) })
	t.Cleanup(sendRest)
	origin := newTestOrigin(t, nil)
	serve := func(etag, lastMod, cacheControl string, body []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			origin.fetches.Add(1)
			w.Header().Set("ETag", etag)
			w.Header().Set("Last-Modified", lastMod)
			w.Header().Set("Cache-Control", cacheControl)
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			if len(body) == len(gen1) {
				w.Write(body[:64<<10])
				w.(http.Flusher).Flush()
				<-restOfGen1
				body = body[64<<10:]
			}
			w.Write(body)
		}
	}
	origin.setHandler(serve(`"v1"`, "Wed, 01 Jan 2020 00:00:00 GMT", "no-cache", gen1))
	holdWrite, writing, releaseWrite := gateOnce(t)
	failpoint.Arm(fpConnWrite.Name(), func(...any) error {
		holdWrite()
		return nil
	})
	t.Cleanup(func() { failpoint.Disarm(fpConnWrite.Name()) })
	clock := new(advancingClock)
	srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr), clock.install, func(cfg *Config) {
		cfg.Cache.MapBytes = 1 // a chunk leaves the cache with its last pin
	})
	t.Cleanup(releaseWrite)

	connS := dialRaw(t, base)
	fmt.Fprintf(connS, "GET /up/doc HTTP/1.0\r\n\r\n")
	<-writing // S's first run: the header and chunk 0
	sendRest()
	waitFor(t, "generation 1's fill", func() bool { return srv.Stats().Fills.Completed == 1 })
	origin.setHandler(serve(`"v2"`, "Fri, 01 Jan 2021 00:00:00 GMT", "max-age=60", gen2))
	clock.advance(time.Second) // past generation 1's expiry

	head := func() (int64, error) {
		resp, err := client.Head(base + "/up/doc")
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.ContentLength, nil
	}
	releaseHead := holdFirstExchange(t)
	lengthR := make(chan int64, 1)
	go func() {
		n, _ := head()
		lengthR <- n
	}()
	waitFor(t, "R's revalidation", func() bool { return srv.Stats().Fills.Started == 2 })
	misses := func() (n uint64) {
		for _, ss := range srv.ShardStats() {
			n += ss.MapCache.Misses
		}
		return n
	}
	before := misses()
	releaseWrite()
	waitFor(t, "S's walk to miss", func() bool { return misses() > before })
	releaseHead()

	respS, err := http.ReadResponse(bufio.NewReader(connS), nil)
	if err != nil {
		t.Fatal(err)
	}
	bodyS, err := io.ReadAll(respS.Body)
	if err == nil || len(bodyS) >= len(gen1) || !bytes.Equal(bodyS, gen1[:len(bodyS)]) {
		t.Fatalf("S: %d body bytes (err %v), want generation 1's first bytes, cut short", len(bodyS), err)
	}
	if n := <-lengthR; n != int64(len(gen2)) {
		t.Fatalf("R: Content-Length %d, want generation 2's %d", n, len(gen2))
	}
	if n, err := head(); err != nil || n != int64(len(gen2)) {
		t.Fatalf("second HEAD: Content-Length %d (err %v), want generation 2's %d", n, err, len(gen2))
	}
	if f, st := origin.fetches.Load(), srv.Stats(); f != 2 || st.Fills.Started != 2 || st.ProxyHits != 1 {
		t.Fatalf("origin fetches = %d, fills = %d, hits = %d; want 2, 2 and the second HEAD a hit",
			f, st.Fills.Started, st.ProxyHits)
	}
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
		clock := new(advancingClock)
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr), clock.install)

		if _, body := clientGet(t, client, base+"/up/doc"); string(body) != string(v1) {
			t.Fatalf("cold GET: %q", body)
		}
		clock.advance(time.Second) // past the entry's expiry
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
		clock.advance(time.Second)
		if _, body := clientGet(t, client, base+"/up/doc"); string(body) != string(v2) {
			t.Fatalf("post-change GET: %d bytes, want %d", len(body), len(v2))
		}
	})
}

// TestProxyRange: a proxied entry answers ranges and conditionals
// through the file path's responder — 206 for a single range (a suffix
// range and one inside chunk 3 included), 416 naming the length, If-Range
// honoured with the origin's ETag and refused with another tag or with a
// date (the origin sent no Last-Modified, so neither If-Range dates nor
// If-Modified-Since can validate), a local 304 for If-None-Match — all
// off one origin fetch.
func TestProxyRange(t *testing.T) {
	want := pattern(4<<16 - 1000) // four 64 KiB chunks, the last one short
	n := len(want)
	origin := newTestOrigin(t, nil)
	origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "max-age=60"))
	_, base, client := newProxyServer(t, testPoolFor(t, origin.addr))
	etag := fmt.Sprintf(`"v1-%d"`, len("/up/data")) // the origin sees the full target
	date := time.Now().UTC().Format(http.TimeFormat)

	c3 := 3<<16 + 100 // inside chunk 3
	for _, tc := range []struct {
		name    string
		headers [][2]string
		status  int
		body    []byte
		crange  string
	}{
		{"first range fills", [][2]string{{"Range", "bytes=0-99"}}, 206, want[:100], fmt.Sprintf("bytes 0-99/%d", n)},
		{"suffix range", [][2]string{{"Range", "bytes=-100"}}, 206, want[n-100:], fmt.Sprintf("bytes %d-%d/%d", n-100, n-1, n)},
		{"range in chunk 3", [][2]string{{"Range", fmt.Sprintf("bytes=%d-%d", c3, c3+4999)}}, 206, want[c3 : c3+5000],
			fmt.Sprintf("bytes %d-%d/%d", c3, c3+4999, n)},
		{"unsatisfiable", [][2]string{{"Range", fmt.Sprintf("bytes=%d-", n)}}, 416, nil, fmt.Sprintf("bytes */%d", n)},
		{"If-Range origin ETag", [][2]string{{"Range", "bytes=10-19"}, {"If-Range", etag}}, 206, want[10:20], fmt.Sprintf("bytes 10-19/%d", n)},
		{"If-Range other ETag", [][2]string{{"Range", "bytes=10-19"}, {"If-Range", `"other"`}}, 200, want, ""},
		{"If-Range date", [][2]string{{"Range", "bytes=10-19"}, {"If-Range", date}}, 200, want, ""},
		{"If-Modified-Since", [][2]string{{"If-Modified-Since", date}}, 200, want, ""},
		{"If-None-Match", [][2]string{{"If-None-Match", etag}}, 304, nil, ""},
		{"If-Match other ETag", [][2]string{{"Range", "bytes=10-19"}, {"If-Match", `"other"`}}, 412, nil, ""},
		{"If-Match origin ETag", [][2]string{{"If-Match", etag}}, 200, want, ""},
		// The origin sent no Last-Modified, so there is nothing to compare.
		{"If-Unmodified-Since", [][2]string{{"If-Unmodified-Since", "Tue, 01 Jun 1999 00:00:00 GMT"}}, 200, want, ""},
	} {
		req, _ := http.NewRequest("GET", base+"/up/data", nil)
		for _, h := range tc.headers {
			req.Header.Set(h[0], h[1])
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if tc.body != nil && !bytes.Equal(body, tc.body) {
			t.Fatalf("%s: %d body bytes differ from the origin's %d", tc.name, len(body), len(tc.body))
		}
		if got := resp.Header.Get("Content-Range"); got != tc.crange {
			t.Fatalf("%s: Content-Range %q, want %q", tc.name, got, tc.crange)
		}
		if lm := resp.Header.Get("Last-Modified"); lm != "" {
			t.Fatalf("%s: Last-Modified %q, but the origin sent none", tc.name, lm)
		}
	}
	if f := origin.fetches.Load(); f != 1 {
		t.Fatalf("origin fetches = %d, want 1", f)
	}
}

// rawOrigin serves resp, byte for byte, to every request head on every
// connection: an origin head net/http would never write.
func rawOrigin(t *testing.T, resp string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(c)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						io.WriteString(c, resp)
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestProxyOriginFieldRules asserts the response side of RFC 9112
// §5.1–5.2: whitespace between an origin's field name and its colon is
// removed, so "Content-Length : 5" still frames its body, while an
// obs-fold line makes the head malformed — a 502, counted.
func TestProxyOriginFieldRules(t *testing.T) {
	for _, tc := range []struct {
		name, head string
		status     int
		body       string
	}{
		{"whitespace before colon", "HTTP/1.1 200 OK\r\nContent-Length : 5\r\n", 200, "hello"},
		{"obs-fold", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-A: a\r\n X-B: b\r\n", 502, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, base, client := newProxyServer(t, testPoolFor(t, rawOrigin(t, tc.head+"\r\nhello")))
			resp, body := clientGet(t, client, base+"/up/x")
			if resp.StatusCode != tc.status || (tc.body != "" && string(body) != tc.body) {
				t.Fatalf("status %d body %q, want %d %q", resp.StatusCode, body, tc.status, tc.body)
			}
			if errs := srv.Stats().ProxyErrors; (tc.status == 502) != (errs > 0) {
				t.Fatalf("ProxyErrors = %d after a %d", errs, tc.status)
			}
		})
	}
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
	// A 502 is framed like any response: the connection that got one
	// carries the next request.
	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		fmt.Fprintf(conn, "GET /up/kept-%d HTTP/1.1\r\nHost: x\r\n\r\n", i)
		resp, err := readResponse(br, "GET")
		if err != nil {
			t.Fatalf("request %d on one connection: %v", i, err)
		}
		if resp.status != 502 {
			t.Fatalf("request %d on one connection: status %d, want 502", i, resp.status)
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
// uncacheable target into one fill: its origin exchange is held at
// upstream/read-head until all of them are at the proxy. Its live
// response goes to exactly one of them, and every other relays a fetch
// of its own — one fetch per request, each with the right bytes.
func TestProxyUncacheableConcurrent(t *testing.T) {
	forEachProxyMatrix(t, func(t *testing.T) {
		origin := newTestOrigin(t, nil)
		origin.setHandler(func(w http.ResponseWriter, r *http.Request) {
			origin.fetches.Add(1)
			w.Header().Set("Cache-Control", "no-store")
			w.Header().Set("Content-Length", "9")
			w.Write([]byte("ephemeral"))
		})
		release := holdFirstExchange(t)
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr))
		t.Cleanup(release) // before Close: a held helper would wedge it

		const n = 6
		wait := getConcurrently(t, client, base+"/up/live", n, []byte("ephemeral"))
		waitFor(t, "every request at the proxy", func() bool { return srv.Stats().ProxyRequests == n })
		release()
		wait()
		if f, st := origin.fetches.Load(), srv.Stats(); f != n || st.Fills.Started != 1 || st.ProxyPassThrough != n {
			t.Fatalf("origin fetches = %d, fills = %d, pass-through = %d; want %d, 1 and %d",
				f, st.Fills.Started, st.ProxyPassThrough, n, n)
		}
	})
}
