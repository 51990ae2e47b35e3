//go:build linux

package flash

// Tests for the parked-mapping lifetime rule at the HTTP surface: one
// mmap per file generation however often its chunks are evicted and
// refilled, the mapping outliving its path entry for as long as a
// response holds its bytes, eviction returning the pages (resident size
// stays at the chunk budget), and a zapped chunk under an unwritten
// response still arriving intact.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
)

// transientChunks makes every chunk leave the cache the moment its last
// pin goes: a one-byte budget and no L1 retention.
func transientChunks(cfg *Config) {
	cfg.EventLoops = 1
	cfg.SendfileThreshold = -1
	cfg.Cache.MapBytes = 1
	cfg.Cache.L1Bytes = -1
}

// gateWrites arms flash/conn-write with a hook that holds every socket
// write until the returned release is called (idempotent; also run at
// cleanup so a failing test cannot wedge the server's Close).
func gateWrites(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	failpoint.Arm(fpConnWrite.Name(), func(...any) error {
		<-gate
		return nil
	})
	open := false
	release = func() {
		if !open {
			open = true
			close(gate)
			failpoint.Disarm(fpConnWrite.Name())
		}
	}
	t.Cleanup(release)
	return release
}

// TestParkedMappingRefillAfterEviction: every chunk of a file is
// evicted, then the file is requested again. The answer is byte-exact
// from one new fill over the same mapping: no mmap, no munmap.
func TestParkedMappingRefillAfterEviction(t *testing.T) {
	const (
		budget = 4 << 20 // 256 KiB in each of the shared tier's segments
		others = 8 * budget / (64 << 10)
	)
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.RevalidateInterval = -1
		cfg.Cache.MapBytes = budget
		cfg.Cache.L1Bytes = -1
	})
	want := pattern(160 << 10)
	mustWrite(t, s.cfg.DocRoot, "refill.bin", string(want))
	fetch := func() {
		t.Helper()
		if resp, body := get(t, base+"/refill.bin"); resp.StatusCode != 200 || !bytes.Equal(body, want) {
			t.Fatalf("status %d, %d body bytes", resp.StatusCode, len(body))
		}
	}
	fetch()
	if st := s.Stats(); st.FileMaps != 1 || st.Fills.Started != 1 {
		t.Fatalf("first request: maps=%d fills=%d, want 1 and 1", st.FileMaps, st.Fills.Started)
	}
	// Eight budgets of other files turn every segment over several times.
	for i := 0; i < others; i++ {
		mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("other/%03d.bin", i), string(pattern(64<<10)))
		if resp, _ := get(t, fmt.Sprintf("%s/other/%03d.bin", base, i)); resp.StatusCode != 200 {
			t.Fatalf("other/%03d.bin: status %d", i, resp.StatusCode)
		}
	}
	before := s.Stats()
	fetch()
	after := s.Stats()
	if after.Fills.Started != before.Fills.Started+1 || after.FileMaps != before.FileMaps {
		t.Fatalf("refill: fills %d -> %d, maps %d -> %d; want one more fill over the parked mapping",
			before.Fills.Started, after.Fills.Started, before.FileMaps, after.FileMaps)
	}
	if after.FileMaps != others+1 || after.FileUnmaps != 0 || after.MapFallbacks != 0 {
		t.Fatalf("maps=%d unmaps=%d fallbacks=%d, want one parked mapping per file (%d)",
			after.FileMaps, after.FileUnmaps, after.MapFallbacks, others+1)
	}
}

// TestParkedMappingFallbackCounted: a file that cannot be mapped is
// read, job by job, and counted — never an error to the client.
func TestParkedMappingFallbackCounted(t *testing.T) {
	useChunkPath(t, "heap")
	s, base := newTestServer(t, func(cfg *Config) { cfg.SendfileThreshold = -1 })
	for round := 1; round <= 2; round++ {
		if resp, body := get(t, base+"/big.bin"); resp.StatusCode != 200 || len(body) != 300<<10 {
			t.Fatalf("round %d: status %d, %d body bytes", round, resp.StatusCode, len(body))
		}
	}
	if st := s.Stats(); st.MapFallbacks != 1 || st.FileMaps != 0 || st.Fills.Started != 1 {
		t.Fatalf("fallbacks=%d maps=%d fills=%d after one fill of an unmappable file, want 1, 0 and 1",
			st.MapFallbacks, st.FileMaps, st.Fills.Started)
	}
}

// TestParkedMappingOutlivesEntry: a response is committed and held
// before its write while the path entry it came from is evicted. The
// descriptor closes — the last FileRef reference is gone — but the
// mapping stays until the response's pin is released, the bytes arrive
// intact, and then it is unmapped, once.
func TestParkedMappingOutlivesEntry(t *testing.T) {
	s, base := newTestServer(t, func(cfg *Config) {
		transientChunks(cfg)
		cfg.ConnEngine = ConnEngineGoroutine
		cfg.Cache.PathEntries = 1
		cfg.RevalidateInterval = -1
	})
	want := pattern(60 << 10)
	mustWrite(t, s.cfg.DocRoot, "held.bin", string(want))

	release := gateWrites(t)
	connA := dialRaw(t, base)
	fmt.Fprintf(connA, "GET /held.bin HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	waitStats(t, s, "the response to be committed", func(st Stats) bool { return st.Responses == 1 })
	var ref *cache.FileRef
	sh := s.shards[0]
	sh.call(func() {
		pe, _ := sh.view.PeekPath("/held.bin")
		ref = entryRef(pe)
	})
	if ref == nil {
		t.Fatal("no cached descriptor for /held.bin")
	}
	waitFor(t, "the helpers' descriptor pins to go", func() bool { return ref.Refs() == 1 })
	if refs := ref.MapRefs(); refs != 2 {
		t.Fatalf("mapping refs = %d with the response committed, want the FileRef's and the pinned chunk's", refs)
	}

	// A second path evicts the entry (PathEntries is 1). Its own response
	// is held by the same gate; only its translation matters here.
	connB := dialRaw(t, base)
	fmt.Fprintf(connB, "GET /hello.txt HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	waitFor(t, "the path entry to be evicted", func() bool {
		gone := false
		sh.call(func() { _, ok := sh.view.PeekPath("/held.bin"); gone = !ok })
		return gone
	})
	if refs := ref.Refs(); refs != 0 {
		t.Fatalf("descriptor refs = %d after its entry was evicted, want 0", refs)
	}
	if st := s.Stats(); st.FileUnmaps != 0 {
		t.Fatalf("%d mappings unmapped under a response that still holds one", st.FileUnmaps)
	}

	release()
	resp, err := readResponse(bufio.NewReader(connA), "GET")
	if err != nil || resp.status != 200 || !bytes.Equal(resp.body, want) {
		t.Fatalf("held response: %v err=%v", resp, err)
	}
	waitStats(t, s, "the mapping to be unmapped once its last view went", func(st Stats) bool {
		return st.FileUnmaps >= 1
	})
}

// TestParkedMappingTruncateThenNewGeneration: a file is truncated under
// its parked mapping while a fill is between chunks. The fill fails on
// the fault, the entry is invalidated and takes the mapping with it;
// the file's next generation is mapped anew and served by the same
// process.
func TestParkedMappingTruncateThenNewGeneration(t *testing.T) {
	const chunk = 8192
	gate := make(chan struct{})
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "trunc.bin") && off == chunk {
			<-gate
		}
	})
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
	})
	fsPath := filepath.Join(s.cfg.DocRoot, "trunc.bin")
	mustWrite(t, s.cfg.DocRoot, "trunc.bin", string(pattern(4*chunk)))

	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /trunc.bin HTTP/1.0\r\n\r\n")
	br := bufio.NewReader(conn)
	readThroughFirstByte(t, br) // chunk 0 is out; the pass is held before chunk 1
	if err := os.Truncate(fsPath, 0); err != nil {
		t.Fatal(err)
	}
	close(gate)
	st := waitStats(t, s, "the fill to fail on the fault", func(st Stats) bool { return st.Fills.Failed == 1 })
	if st.FileMaps != 1 {
		t.Fatalf("maps = %d before the new generation, want 1", st.FileMaps)
	}

	fresh := bytes.ToUpper(pattern(3 * chunk))
	if err := os.WriteFile(fsPath, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(5 * time.Second)
	if err := os.Chtimes(fsPath, future, future); err != nil {
		t.Fatal(err)
	}
	if resp, body := get(t, base+"/trunc.bin"); resp.StatusCode != 200 || !bytes.Equal(body, fresh) {
		t.Fatalf("new generation: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	waitStats(t, s, "the new generation to be mapped anew and the old mapping to go", func(st Stats) bool {
		return st.FileMaps == 2 && st.FileUnmaps == 1
	})
}

// TestParkedMappingZapUnderCorkedResponse: the owner tier evicts — and
// zaps — a chunk while committed responses that carry its bytes have
// not been written. The pages fault back in under the writev.
func TestParkedMappingZapUnderCorkedResponse(t *testing.T) {
	s, base := newTestServer(t, func(cfg *Config) {
		transientChunks(cfg)
		cfg.ConnEngine = ConnEngineGoroutine
		cfg.RevalidateInterval = -1
	})
	want := pattern(60 << 10)
	mustWrite(t, s.cfg.DocRoot, "zapped.bin", string(want))

	release := gateWrites(t)
	conn := dialRaw(t, base)
	get := "GET /zapped.bin HTTP/1.1\r\nHost: t\r\n\r\n"
	fmt.Fprint(conn, get+get)
	// Both responses committed and corked; with a one-byte budget the
	// owner tier has dropped the chunk — each time it was loaded — by
	// the time its last pin there went.
	st := waitStats(t, s, "both responses committed and the chunk evicted", func(st Stats) bool {
		return st.Responses == 2 && st.SharedChunks.BytesMapped == st.SharedChunks.BytesUnmapped
	})
	if st.SharedChunks.Evictions < 2 || st.FileMaps != 1 {
		t.Fatalf("evictions=%d maps=%d, want the chunk zapped at least once per response, from one mapping",
			st.SharedChunks.Evictions, st.FileMaps)
	}
	release()
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != 200 || !bytes.Equal(resp.body, want) {
			t.Fatalf("response %d: %v err=%v", i, resp, err)
		}
	}
}

// rssFile reads RssFile — resident file-backed pages, which is where
// mapped chunks count — from /proc/self/status, in bytes.
func rssFile(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "RssFile:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Skip("no RssFile line in /proc/self/status")
	return 0
}

// TestParkedMappingResidentSizeBounded is the test that fails if the
// zap is lost: four chunk budgets of distinct files stream through a
// 4 MiB-budget server, every mapping stays parked, and the process's
// resident file pages grow by no more than the budget (plus the L1, one
// file in flight, and slack for the test binary's own text).
func TestParkedMappingResidentSizeBounded(t *testing.T) {
	const (
		budget   = 4 << 20
		fileSize = 128 << 10
		files    = 4 * budget / fileSize
	)
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.Cache.MapBytes = budget
		cfg.ConnEngine = ConnEngineGoroutine
	})
	for i := 0; i < files; i++ {
		mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("rss/%03d.bin", i), string(pattern(fileSize+i)))
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	br := bufio.NewReader(conn)
	fetch := func(i int) {
		fmt.Fprintf(conn, "GET /rss/%03d.bin HTTP/1.1\r\nHost: t\r\n\r\n", i)
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != 200 || len(resp.body) != fileSize+i {
			t.Fatalf("file %d: %v err=%v", i, resp, err)
		}
	}
	// The first budget's worth warms every code path and fills the
	// cache; growth is measured over the three budgets that follow.
	for i := 0; i < files/4; i++ {
		fetch(i)
	}
	before := rssFile(t)
	for i := files / 4; i < files; i++ {
		fetch(i)
	}
	grew := rssFile(t) - before
	st := s.Stats()
	if st.FileMaps != files || st.FileUnmaps != 0 {
		t.Fatalf("maps=%d unmaps=%d, want all %d files mapped and parked", st.FileMaps, st.FileUnmaps, files)
	}
	const allowed = budget/2 + 2<<20 // the budget was full already: L1 (budget/8), a file in flight, text pages
	if grew > allowed {
		t.Fatalf("RssFile grew by %d KiB while %d KiB streamed through a full %d KiB budget, want at most %d KiB",
			grew>>10, 3*budget>>10, budget>>10, allowed>>10)
	}
}
