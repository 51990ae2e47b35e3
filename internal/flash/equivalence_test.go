package flash

// The transport equivalence suite: the path that sends a body straight
// from the file's descriptor and the chunk-cache walk must be
// indistinguishable on the wire. One docroot is served through two
// servers — SendfileThreshold=1 (every non-empty static body skips the
// chunk cache and ships from the descriptor) and SendfileThreshold=-1
// (every body walks the chunk cache: a one-chunk body gathered with its
// header into one writev, a multi-chunk body sent from its window
// chunks, by sendfile on Linux) — and the same request scripts are
// replayed against both, asserting identical status lines, identical
// headers (modulo Date), and byte-identical bodies. Run under -race in
// CI.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
)

// chunkPaths are the two ways a disk helper loads a chunk: "mmap",
// what every Linux server runs, and "heap", the read fallback — the
// only path a platform without mmap has — reached here by failing the
// flash/map-file failpoint. The labels are the ones the two carried as
// selectable cache engines, so test IDs stay comparable across that
// change.
var chunkPaths = []string{"heap", "mmap"}

// testChunkPath is the chunk path the running subtest is on (see
// useChunkPath); mapRefusals counts the map attempts the "heap" path's
// failpoint turned away, so a suite can prove it ran on the fallback.
var (
	testChunkPath = "mmap"
	mapRefusals   atomic.Int64
)

// useChunkPath puts the calling subtest on the named chunk path. Call
// it before starting a server: cleanup is LIFO, so the failpoint then
// disarms only after the helpers have stopped.
func useChunkPath(t *testing.T, path string) {
	t.Helper()
	prev := testChunkPath
	testChunkPath = path
	t.Cleanup(func() { testChunkPath = prev })
	if path != "heap" {
		return
	}
	refused := errors.New("test: map refused")
	failpoint.Arm(fpMapFile.Name(), func(...any) error {
		mapRefusals.Add(1)
		return refused
	})
	t.Cleanup(func() { failpoint.Disarm(fpMapFile.Name()) })
}

// forEachChunkPath runs a test body once per chunk path. The paths
// differ only in chunk transport (refcounted mmap views vs heap
// copies), so every suite run through this helper is an equivalence
// statement: how a chunk was loaded can never change wire bytes.
func forEachChunkPath(t *testing.T, fn func(t *testing.T)) {
	for _, path := range chunkPaths {
		t.Run("engine="+path, func(t *testing.T) {
			useChunkPath(t, path)
			fn(t)
		})
	}
}

// pattern returns n non-uniform bytes; offset bugs that uniform fills
// (like big.bin's all-'B') would mask show up as mismatches here.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((i*7 + i>>8) % 251)
	}
	return b
}

// newEquivPair builds one docroot and serves it through both
// transports.
func newEquivPair(t *testing.T) (sf, cp *Server, sfBase, cpBase string) {
	t.Helper()
	root := t.TempDir()
	files := map[string][]byte{
		"small.txt": []byte("tiny body\n"),
		"page.html": bytes.Repeat([]byte("x"), 5000),
		"multi.bin": pattern(200 << 10), // 4 chunks
		"large.bin": pattern(700 << 10), // 11 chunks, above any threshold
		"empty.bin": {},
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(root, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	start := func(threshold int64) (*Server, string) {
		s, err := New(Config{DocRoot: root, SendfileThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		t.Cleanup(func() { s.Close() })
		return s, "http://" + l.Addr().String()
	}
	sf, sfBase = start(1)  // all-sendfile
	cp, cpBase = start(-1) // disabled: all chunk-cache
	return sf, cp, sfBase, cpBase
}

// oneExchange runs a single raw request against base and parses the
// response.
func oneExchange(t *testing.T, base, method, target, hdrs string) *rawResponse {
	t.Helper()
	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: t\r\n%sConnection: close\r\n\r\n", method, target, hdrs)
	resp, err := readResponse(bufio.NewReader(conn), method)
	if err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
	return resp
}

// assertSameResponse compares two parsed responses modulo the Date
// header.
func assertSameResponse(t *testing.T, label string, a, b *rawResponse) {
	t.Helper()
	if a.proto != b.proto || a.status != b.status {
		t.Fatalf("%s: status line differs: %s %d vs %s %d",
			label, a.proto, a.status, b.proto, b.status)
	}
	ah, bh := map[string]string{}, map[string]string{}
	for k, v := range a.headers {
		if k != "date" {
			ah[k] = v
		}
	}
	for k, v := range b.headers {
		if k != "date" {
			bh[k] = v
		}
	}
	if !reflect.DeepEqual(ah, bh) {
		t.Fatalf("%s: headers differ:\nsendfile: %v\ncopy:     %v", label, ah, bh)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatalf("%s: bodies differ (%d vs %d bytes)", label, len(a.body), len(b.body))
	}
}

func TestTransportEquivalence(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) { forEachChunkPath(t, testTransportEquivalence) })
}

func testTransportEquivalence(t *testing.T) {
	refused := mapRefusals.Load()
	sf, _, sfBase, cpBase := newEquivPair(t)
	etag := fileETag(t, sf, "small.txt")

	cases := []struct {
		name   string
		method string
		target string
		hdrs   string
		status int
	}{
		{"small", "GET", "/small.txt", "", 200},
		{"multi-chunk", "GET", "/multi.bin", "", 200},
		{"large", "GET", "/large.bin", "", 200},
		{"empty", "GET", "/empty.bin", "", 200},
		{"range-mid", "GET", "/large.bin", "Range: bytes=100000-500000\r\n", 206},
		{"range-chunk-straddle", "GET", "/large.bin", "Range: bytes=65530-65545\r\n", 206},
		{"range-suffix", "GET", "/large.bin", "Range: bytes=-12345\r\n", 206},
		{"range-single-byte", "GET", "/multi.bin", "Range: bytes=0-0\r\n", 206},
		{"range-unsatisfiable", "GET", "/small.txt", "Range: bytes=999-\r\n", 416},
		{"not-modified", "GET", "/small.txt", "If-None-Match: " + etag + "\r\n", 304},
		{"head-large", "HEAD", "/large.bin", "", 200},
		{"not-found", "GET", "/definitely-missing", "", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ra := oneExchange(t, sfBase, tc.method, tc.target, tc.hdrs)
			rb := oneExchange(t, cpBase, tc.method, tc.target, tc.hdrs)
			if ra.status != tc.status {
				t.Fatalf("status = %d, want %d", ra.status, tc.status)
			}
			assertSameResponse(t, tc.name, ra, rb)
		})
	}

	// The suite must not be comparing copy against copy: on platforms
	// with a kernel zero-copy path, the threshold-1 server must have
	// moved its static bodies with sendfile.
	if sendfileSupported {
		if st := sf.Stats(); st.BytesSendfile == 0 {
			t.Fatalf("all-sendfile server reported zero sendfile bytes: %+v", st)
		}
	}
	// Nor mapped chunks against mapped chunks: on the fallback path the
	// copy server must have had its map attempts refused and read.
	if testChunkPath == "heap" && mapRefusals.Load() == refused {
		t.Fatal("read-fallback leg never reached the flash/map-file failpoint")
	}
}

// TestTransportEquivalencePipelined replays one pipelined keep-alive
// burst that alternates transports mid-connection (large above the
// threshold, small below it on a default-threshold server) and asserts
// the two framings agree exchange by exchange.
func TestTransportEquivalencePipelined(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) { forEachChunkPath(t, testTransportEquivalencePipelined) })
}

func testTransportEquivalencePipelined(t *testing.T) {
	_, _, sfBase, cpBase := newEquivPair(t)
	script := "" +
		"GET /large.bin HTTP/1.1\r\nHost: t\r\n\r\n" +
		"GET /small.txt HTTP/1.1\r\nHost: t\r\n\r\n" +
		"GET /large.bin HTTP/1.1\r\nHost: t\r\nRange: bytes=12345-234567\r\n\r\n" +
		"HEAD /multi.bin HTTP/1.1\r\nHost: t\r\n\r\n" +
		"GET /multi.bin HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
	methods := []string{"GET", "GET", "GET", "HEAD", "GET"}

	run := func(base string) []*rawResponse {
		conn := dialRaw(t, base)
		if _, err := conn.Write([]byte(script)); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		var out []*rawResponse
		for i, m := range methods {
			resp, err := readResponse(br, m)
			if err != nil {
				t.Fatalf("exchange %d: %v", i, err)
			}
			out = append(out, resp)
		}
		return out
	}
	a, b := run(sfBase), run(cpBase)
	for i := range a {
		assertSameResponse(t, fmt.Sprintf("exchange %d", i), a[i], b[i])
	}
	// Ground truth for the burst's first body, independent of the
	// cross-transport comparison.
	if want := pattern(700 << 10); !bytes.Equal(a[0].body, want) {
		t.Fatal("sendfile body does not match the file content")
	}
}

// TestFDLifetimeUnderEviction is the regression test for the
// descriptor-lifetime hazard: with a pathname cache far smaller than
// the working set, every translation evicts another connection's entry
// — whose descriptor may be mid-pread on a helper (copy transport) or
// mid-sendfile on a writer (sendfile transport). With refcounted
// descriptors every response must still complete byte-perfect; before
// the fix, eviction closed descriptors under concurrent reads. Run
// with -race. A window chunk is one more holder of its descriptor:
// window-outlives-entry checks that it keeps the descriptor open past
// its path entry's eviction, and that the descriptor closes when the
// last such chunk goes.
func TestFDLifetimeUnderEviction(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int64
	}{
		{"copy", -1},
		{"sendfile", 1},
	} {
		t.Run("transport="+tc.name, func(t *testing.T) {
			forEachChunkPath(t, func(t *testing.T) {
				testFDLifetimeUnderEviction(t, tc.threshold)
			})
		})
	}
	t.Run("window-outlives-entry", func(t *testing.T) {
		forEachChunkPath(t, testWindowOutlivesEntry)
	})
}

// testWindowOutlivesEntry: a three-chunk file is cached as three
// windows of the descriptor its fill read, each holding a reference.
// A one-entry pathname cache then evicts its entry: the entry's
// reference goes, the windows' stay, and the descriptor is open. The
// file's next request translates afresh — a new descriptor — and is
// answered from the cached windows through the old one, with no fill.
// Dropping the windows closes it.
func testWindowOutlivesEntry(t *testing.T) {
	const chunks = 3
	want := pattern(chunks * 64 << 10)
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.RevalidateInterval = -1
		cfg.SendfileThreshold = -1
		cfg.Cache.PathEntries = 1
	})
	mustWrite(t, s.cfg.DocRoot, "win.bin", string(want))
	fetch := func(path string) {
		t.Helper()
		body, err := rawGet(strings.TrimPrefix(base, "http://"), path)
		if err != nil || (path == "/win.bin" && !bytes.Equal(body, want)) {
			t.Fatalf("GET %s: %d bytes, %v", path, len(body), err)
		}
	}
	sh := s.shards[0]
	entry := func() (pe cache.PathEntry, ok bool) {
		sh.call(func() { pe, ok = sh.view.PeekPath("/win.bin") })
		return pe, ok
	}

	fetch("/win.bin")
	pe, _ := entry()
	ref := entryRef(pe)
	waitFor(t, "the entry's and the three windows' references", func() bool { return ref.Refs() == 1+chunks })

	fetch("/hello.txt") // evicts win.bin's entry
	if _, ok := entry(); ok {
		t.Fatal("win.bin's path entry survived a one-entry cache")
	}
	waitFor(t, "the entry's reference to go", func() bool { return ref.Refs() == chunks })
	if _, err := ref.File().Stat(); err != nil {
		t.Fatalf("descriptor held by the windows: %v", err)
	}

	fills := s.Stats().Fills.Started
	fetch("/win.bin")
	if f := s.Stats().Fills.Started - fills; f != 0 {
		t.Fatalf("%d fills for a file whose windows are cached", f)
	}
	fresh, _ := entry()
	if entryRef(fresh) == ref {
		t.Fatal("the new translation reuses the evicted entry's descriptor")
	}
	waitFor(t, "the response's references to go", func() bool { return ref.Refs() == chunks })

	sh.call(func() { sh.view.InvalidateFile(pe.Translated, pe.Size, pe.ModTime) })
	if n := ref.Refs(); n != 0 {
		t.Fatalf("descriptor refs = %d with every window dropped, want 0", n)
	}
	if _, err := ref.File().Stat(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("descriptor after the last window went: %v, want closed", err)
	}
}

func testFDLifetimeUnderEviction(t *testing.T, threshold int64) {
	root := t.TempDir()
	const nfiles, fileSize = 6, 192 << 10
	want := make([][]byte, nfiles)
	for i := 0; i < nfiles; i++ {
		want[i] = pattern(fileSize + i) // distinct sizes and bytes
		name := fmt.Sprintf("f%d.bin", i)
		if err := os.WriteFile(filepath.Join(root, name), want[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{
		DocRoot:           root,
		EventLoops:        1,
		SendfileThreshold: threshold,
		Cache: CacheConfig{
			PathEntries: 2, // working set is 6: constant eviction
			MapBytes:    1, // chunks are transient: every read hits the fd or the file's mapping
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	base := "http://" + l.Addr().String()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for j := 0; j < 40; j++ {
				i := (w + j) % nfiles
				resp, err := client.Get(fmt.Sprintf("%s/f%d.bin", base, i))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("f%d.bin: %v", i, err)
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("f%d.bin: status %d", i, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, want[i]) {
					errs <- fmt.Errorf("f%d.bin: body corrupt (%d bytes)", i, len(body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	waitReleased(t, s)
}

// waitReleased waits for a quiesced one-loop server to hold no pin a
// response took: every cached entry's descriptor holds exactly the
// cache's own reference plus one per resident chunk read through it,
// mapped or window — a reference beyond those is a response's, or a
// chunk's that was invalidated while somebody pinned it — and every
// resident chunk of a
// cached file is unpinned. The pins are looked at only once no
// descriptor is held beyond the cache's and the chunks': until then a
// fill may still be releasing its pins, on its helper.
func waitReleased(t *testing.T, s *Server) {
	t.Helper()
	if len(s.shards) != 1 {
		t.Fatal("waitReleased checks a one-loop server")
	}
	sh := s.shards[0]
	deadline := time.Now().Add(2 * time.Second)
	// eachChunk visits the resident chunks of a cached file, pinned for
	// the call.
	eachChunk := func(e cache.PathEntry, fn func(*cache.Chunk)) {
		for i := int64(0); i*s.store.ChunkSize() < e.Size; i++ {
			if ch := sh.view.Lookup(cache.ChunkKey{Path: e.Translated, Index: int(i)}, e.ModTime); ch != nil {
				fn(ch)
				sh.view.Release(ch)
			}
		}
	}
	for {
		leaked := 0
		sh.call(func() {
			sh.view.EachPath(func(_ string, e cache.PathEntry) {
				if r := entryRef(e); r != nil {
					held := 0
					eachChunk(e, func(ch *cache.Chunk) {
						if ch.File == r {
							held++
						}
					})
					if r.Refs() != 1+held {
						leaked++
					}
				}
			})
			if leaked > 0 {
				return
			}
			sh.view.EachPath(func(_ string, e cache.PathEntry) {
				if entryRef(e) == nil {
					return
				}
				eachChunk(e, func(ch *cache.Chunk) {
					if ch.Refs() != 1 { // the lookup's own pin
						leaked++
					}
				})
			})
		})
		if leaked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d cached descriptors or chunks still pinned after quiesce", leaked)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
