package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpmsg"
)

// newTestServer builds a docroot, starts a server on a random port, and
// returns its base URL plus a cleanup-registered server handle. Route
// registration must happen before Serve, so tests that mount handlers
// pass them as register funcs instead of calling Handle* afterwards.
func newTestServer(t *testing.T, mutate func(*Config), register ...func(*Server)) (*Server, string) {
	t.Helper()
	root := t.TempDir()
	mustWrite(t, root, "index.html", "<html>home</html>")
	mustWrite(t, root, "hello.txt", "hello, world\n")
	mustWrite(t, root, "sub/page.html", strings.Repeat("x", 5000))
	mustWrite(t, root, "big.bin", strings.Repeat("B", 300<<10)) // 300 KB: 5 chunks

	cfg := Config{DocRoot: root, ConnEngine: testConnEngine}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range register {
		reg(s)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, "http://" + l.Addr().String()
}

func mustWrite(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// waitStats is the barrier for assertions on loop-owned counters: the
// loop bumps them after the write completes, so a client that already
// holds the bytes can still read the old value. It polls the merged
// snapshot until done accepts it and returns that snapshot.
func waitStats(t *testing.T, s *Server, what string, done func(Stats) bool) Stats {
	t.Helper()
	var st Stats
	waitFor(t, what, func() bool {
		st = s.Stats()
		return done(st)
	})
	return st
}

func TestServeSmallFile(t *testing.T) {
	_, base := newTestServer(t, nil)
	resp, body := get(t, base+"/hello.txt")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(body) != "hello, world\n" {
		t.Fatalf("body = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain" {
		t.Fatalf("content type = %q", ct)
	}
	if resp.ContentLength != 13 {
		t.Fatalf("content length = %d", resp.ContentLength)
	}
}

func TestServeIndexFile(t *testing.T) {
	_, base := newTestServer(t, nil)
	resp, body := get(t, base+"/")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("home")) {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
	// A directory path also resolves through the index.
	resp2, _ := get(t, base+"/sub/page.html")
	if resp2.StatusCode != 200 {
		t.Fatalf("nested file status = %d", resp2.StatusCode)
	}
}

func TestServeLargeFileMultiChunk(t *testing.T) {
	// Pin the copy transport: this test exercises the multi-chunk
	// cache walk, which the sendfile threshold would otherwise bypass
	// for a 300 KB file.
	s, base := newTestServer(t, func(c *Config) { c.SendfileThreshold = -1 })
	resp, body := get(t, base+"/big.bin")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(body) != 300<<10 {
		t.Fatalf("body length = %d, want %d", len(body), 300<<10)
	}
	for _, b := range body[:100] {
		if b != 'B' {
			t.Fatal("corrupt body")
		}
	}
	st := s.Stats()
	if st.MapCache.Inserts < 5 {
		t.Fatalf("MapCache.Inserts = %d, want >= 5 chunks", st.MapCache.Inserts)
	}
	if st.BytesSendfile != 0 {
		t.Fatalf("BytesSendfile = %d with the transport disabled", st.BytesSendfile)
	}
}

func TestServeLargeFileSendfileDefault(t *testing.T) {
	// With the default threshold (256 KiB), a 300 KB file ships from
	// the cached descriptor: no chunks enter the map cache, and the
	// body bytes are accounted to the sendfile transport (on platforms
	// without sendfile the fallback copies, so only the map-cache
	// bypass is asserted there).
	s, base := newTestServer(t, nil)
	resp, body := get(t, base+"/big.bin")
	if resp.StatusCode != 200 || len(body) != 300<<10 {
		t.Fatalf("status=%d len=%d", resp.StatusCode, len(body))
	}
	st := s.Stats()
	if st.MapCache.Inserts != 0 {
		t.Fatalf("MapCache.Inserts = %d, want 0 (sendfile bypasses the map cache)", st.MapCache.Inserts)
	}
	if sendfileSupported && st.BytesSendfile != 300<<10 {
		t.Fatalf("BytesSendfile = %d, want %d", st.BytesSendfile, 300<<10)
	}
	if st.BytesSent < 300<<10 {
		t.Fatalf("BytesSent = %d, want >= body", st.BytesSent)
	}
}

func TestNotFound(t *testing.T) {
	s, base := newTestServer(t, nil)
	resp, body := get(t, base+"/missing.html")
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("404")) {
		t.Fatalf("body = %q", body)
	}
	if s.Stats().NotFound != 1 {
		t.Fatalf("NotFound = %d", s.Stats().NotFound)
	}
}

func TestTraversalBlocked(t *testing.T) {
	_, base := newTestServer(t, nil)
	// The HTTP client cleans paths itself, so speak raw HTTP.
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /../../../../etc/passwd HTTP/1.0\r\n\r\n")
	reply, _ := io.ReadAll(conn)
	if bytes.Contains(reply, []byte("root:")) {
		t.Fatal("directory traversal leaked /etc/passwd")
	}
	if !bytes.Contains(reply, []byte("404")) {
		t.Fatalf("unexpected reply: %.100s", reply)
	}
}

func TestHeadRequest(t *testing.T) {
	_, base := newTestServer(t, nil)
	resp, err := http.Head(base + "/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength != 13 {
		t.Fatalf("content length = %d", resp.ContentLength)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, base := newTestServer(t, nil)
	resp, err := http.Post(base+"/hello.txt", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestKeepAliveReusesConnection(t *testing.T) {
	s, base := newTestServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n")
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "hello, world\n" {
			t.Fatalf("request %d body = %q", i, body)
		}
	}
	if st := s.Stats(); st.Accepted != 1 {
		t.Fatalf("Accepted = %d, want 1 (keep-alive reuse)", st.Accepted)
	}
}

func TestHTTP10ClosesByDefault(t *testing.T) {
	_, base := newTestServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.0\r\n\r\n")
	reply, _ := io.ReadAll(conn) // server must close
	if !bytes.HasSuffix(reply, []byte("hello, world\n")) {
		t.Fatalf("reply = %q", reply)
	}
}

func TestCachesWarmAcrossRequests(t *testing.T) {
	s, base := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		get(t, base+"/hello.txt")
	}
	st := s.Stats()
	if st.PathCache.Hits < 2 {
		t.Fatalf("PathCache.Hits = %d, want >= 2", st.PathCache.Hits)
	}
	if st.HeaderCache.Hits < 2 {
		t.Fatalf("HeaderCache.Hits = %d, want >= 2", st.HeaderCache.Hits)
	}
	if st.MapCache.Hits < 2 {
		t.Fatalf("MapCache.Hits = %d, want >= 2", st.MapCache.Hits)
	}
	// Helper jobs: 1 stat + 1 chunk for the first request only.
	if st.HelperJobs > 3 {
		t.Fatalf("HelperJobs = %d, want <= 3 (cache hits skip helpers)", st.HelperJobs)
	}
}

func TestIfModifiedSince(t *testing.T) {
	_, base := newTestServer(t, nil)
	get(t, base+"/hello.txt") // warm
	req, _ := http.NewRequest("GET", base+"/hello.txt", nil)
	req.Header.Set("If-Modified-Since", httpmsg.FormatHTTPTime(time.Now().Add(time.Hour)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 304 {
		t.Fatalf("status = %d, want 304", resp.StatusCode)
	}
}

func TestModifiedFileInvalidatesCaches(t *testing.T) {
	// Revalidate on every request so the change is seen immediately.
	s, base := newTestServer(t, func(c *Config) { c.RevalidateInterval = time.Nanosecond })
	root := s.cfg.DocRoot
	_, body := get(t, base+"/hello.txt")
	if string(body) != "hello, world\n" {
		t.Fatal("first read wrong")
	}
	// Rewrite the file with a different mtime and size.
	path := filepath.Join(root, "hello.txt")
	if err := os.WriteFile(path, []byte("brand new content here"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(2 * time.Hour)
	os.Chtimes(path, old, old)

	// The pathname cache still holds the stale identity; the chunk
	// reload detects the change, invalidates, and restarts.
	resp, body := get(t, base+"/hello.txt")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(body) != "brand new content here" {
		t.Fatalf("body = %q, want new content", body)
	}
}

func TestUserDirTranslation(t *testing.T) {
	users := t.TempDir()
	mustWriteAbs(t, filepath.Join(users, "bob", "public_html", "index.html"), "<html>bob</html>")
	_, base := newTestServer(t, func(c *Config) {
		c.UserDirBase = users
		c.UserDirSuffix = "public_html"
	})
	resp, body := get(t, base+"/~bob/")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("bob")) {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
}

func mustWriteAbs(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicHandler(t *testing.T) {
	s, base := newTestServer(t, nil, func(s *Server) {
		s.HandleDynamic("/cgi-bin/", DynamicFunc(
			func(req *httpmsg.Request) (int, string, io.ReadCloser, error) {
				body := fmt.Sprintf("query=%s", req.Query)
				return 200, "text/plain", io.NopCloser(strings.NewReader(body)), nil
			}))
	})
	resp, body := get(t, base+"/cgi-bin/echo?a=1")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(body) != "query=a=1" {
		t.Fatalf("body = %q", body)
	}
	if s.Stats().DynamicCalls != 1 {
		t.Fatal("DynamicCalls != 1")
	}
}

func TestDynamicHandlerStreamsLargeBody(t *testing.T) {
	const n = 256 << 10
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleDynamic("/stream", DynamicFunc(
			func(req *httpmsg.Request) (int, string, io.ReadCloser, error) {
				return 200, "application/octet-stream",
					io.NopCloser(io.LimitReader(repeatReader('z'), n)), nil
			}))
	})
	resp, body := get(t, base+"/stream")
	if resp.StatusCode != 200 || len(body) != n {
		t.Fatalf("status=%d len=%d", resp.StatusCode, len(body))
	}
}

func TestDynamicHandlerError(t *testing.T) {
	_, base := newTestServer(t, nil, func(s *Server) {
		s.HandleDynamic("/fail", DynamicFunc(
			func(req *httpmsg.Request) (int, string, io.ReadCloser, error) {
				return 0, "", nil, fmt.Errorf("boom")
			}))
	})
	resp, _ := get(t, base+"/fail")
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
}

// repeatReader produces an endless stream of one byte.
type repeatByte byte

func repeatReader(b byte) io.Reader { return repeatByte(b) }

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

func TestConcurrentClients(t *testing.T) {
	s, base := newTestServer(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for j := 0; j < 10; j++ {
				resp, err := client.Get(base + "/sub/page.html")
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
				if len(body) != 5000 {
					errs <- fmt.Errorf("short body: %d", len(body))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.Stats().Responses; got < 160 {
		t.Fatalf("Responses = %d, want >= 160", got)
	}
}

func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	_, base := newTestServer(t, func(c *Config) { c.AccessLog = logw })
	get(t, base+"/hello.txt")
	get(t, base+"/missing")

	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		content := buf.String()
		mu.Unlock()
		if strings.Contains(content, "/hello.txt") && strings.Contains(content, " 404 ") {
			// Parse a line back to prove CLF validity.
			line := strings.SplitN(content, "\n", 2)[0]
			if _, err := httpmsg.ParseCLF(line); err != nil {
				t.Fatalf("invalid CLF line %q: %v", line, err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("log incomplete: %q", content)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestHeaderAlignment(t *testing.T) {
	_, base := newTestServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.0\r\n\r\n")
	reply, _ := io.ReadAll(conn)
	end := httpmsg.HeaderEnd(reply)
	if end < 0 {
		t.Fatal("no header terminator")
	}
	if end%httpmsg.HeaderAlign != 0 {
		t.Fatalf("header length %d not %d-byte aligned", end, httpmsg.HeaderAlign)
	}
}

func TestMalformedRequest(t *testing.T) {
	_, base := newTestServer(t, nil)
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "NONSENSE\r\n\r\n")
	reply, _ := io.ReadAll(conn)
	if !bytes.Contains(reply, []byte(" 400 ")) {
		t.Fatalf("reply = %.120q", reply)
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	s, base := newTestServer(t, nil)
	get(t, base+"/hello.txt")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/hello.txt"); err == nil {
		t.Fatal("request succeeded after Close")
	}
	// Double close is safe.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoDocRoot {
		t.Fatalf("err = %v, want ErrNoDocRoot", err)
	}
	if _, err := New(Config{DocRoot: "/definitely/not/here"}); err != ErrBadDocRoot {
		t.Fatalf("err = %v, want ErrBadDocRoot", err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	s, base := newTestServer(t, nil)
	get(t, base+"/hello.txt")
	st := waitStats(t, s, "1 response", func(st Stats) bool { return st.Responses == 1 })
	if st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent < 13 {
		t.Fatalf("BytesSent = %d", st.BytesSent)
	}
}

func TestTinyMapCacheStillServes(t *testing.T) {
	// A map cache smaller than one chunk forces transient pins only.
	_, base := newTestServer(t, func(c *Config) { c.Cache.MapBytes = 1 })
	resp, body := get(t, base+"/big.bin")
	if resp.StatusCode != 200 || len(body) != 300<<10 {
		t.Fatalf("status=%d len=%d", resp.StatusCode, len(body))
	}
}

func BenchmarkRealServerSmallFile(b *testing.B) {
	root := b.TempDir()
	os.WriteFile(filepath.Join(root, "f.html"), bytes.Repeat([]byte("y"), 1024), 0o644)
	s, err := New(Config{DocRoot: root})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	url := "http://" + l.Addr().String() + "/f.html"
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func TestDirectoryListing(t *testing.T) {
	_, base := newTestServer(t, func(c *Config) { c.EnableListings = true })
	// /sub has no index.html, only page.html.
	resp, body := get(t, base+"/sub/")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("page.html")) {
		t.Fatalf("listing missing entry: %q", body)
	}
	if !bytes.Contains(body, []byte("Index of")) {
		t.Fatal("not a listing page")
	}
}

func TestDirectoryListingDisabledByDefault(t *testing.T) {
	_, base := newTestServer(t, nil)
	resp, _ := get(t, base+"/sub/")
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404 when listings are off", resp.StatusCode)
	}
}

func TestDirectoryWithIndexPrefersIndex(t *testing.T) {
	_, base := newTestServer(t, func(c *Config) { c.EnableListings = true })
	resp, body := get(t, base+"/")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("home")) {
		t.Fatalf("index not preferred: %d %q", resp.StatusCode, body)
	}
}

func TestListingEscapesNames(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, root, "d/<script>.txt", "x")
	s, err := New(Config{DocRoot: root, EnableListings: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	resp, body := get(t, "http://"+l.Addr().String()+"/d/")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte("<script>")) {
		t.Fatal("listing did not HTML-escape file names")
	}
}

func TestFDCacheReusesDescriptors(t *testing.T) {
	s, base := newTestServer(t, nil)
	for i := 0; i < 5; i++ {
		get(t, base+"/big.bin")
	}
	st := s.Stats()
	// 1 stat + 5 chunk loads for the first request; later requests hit
	// the map cache entirely.
	if st.HelperJobs > 8 {
		t.Fatalf("HelperJobs = %d; descriptor/chunk caching not effective", st.HelperJobs)
	}
}
