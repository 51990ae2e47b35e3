package flash

// The transport equivalence suite: the sendfile transport and the
// chunk-cache copy transport must be indistinguishable on the wire.
// One docroot is served through two servers — SendfileThreshold=1
// (every non-empty static body ships via sendfile) and
// SendfileThreshold=-1 (transport disabled, every body walks the chunk
// cache) — and the same request scripts are replayed against both,
// asserting identical status lines, identical headers (modulo Date),
// and byte-identical bodies. Run under -race in CI.

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
// with -race.
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

	// Quiesced: no pin may outlive its response — every cached entry
	// holds exactly the cache's own reference, and the parked mappings
	// (where a helper made one) exactly their entry's plus one per chunk
	// still resident in the shared tier (the one-byte budget keeps
	// f1.bin's one-byte tail chunk).
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaked, views := 0, 0
		s.shards[0].call(func() {
			s.shards[0].view.EachPath(func(_ string, e cache.PathEntry) {
				if r := entryRef(e); r != nil {
					if r.Refs() != 1 {
						leaked++
					}
					views += max(r.MapRefs()-1, 0)
				}
			})
		})
		shared := s.store.SharedStats().Chunks
		if resident := int(shared.Inserts - shared.Evictions); views > resident {
			leaked += views - resident
		}
		if leaked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d cached descriptors or mappings still pinned after quiesce", leaked)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
