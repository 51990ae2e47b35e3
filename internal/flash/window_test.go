package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
)

// Tests for window chunks at the HTTP surface: every chunk of a file
// of several is a window of its descriptor, and a response's run of
// them leaves as its header by writev and its body by one sendfile.

// TestWindowRangeStraddlesChunks: ranges whose windows cross the chunk
// boundaries of a three-chunk file — or sit inside one chunk — are
// byte-exact from the cold fill that brings the file in and from warm
// hits. A warm one is served whole: one run, its header in one writev
// and its window in one sendfile.
func TestWindowRangeStraddlesChunks(t *testing.T) {
	const chunk, size = 64 << 10, 160 << 10
	want := pattern(size)
	for _, r := range [][2]int{
		{chunk - 1, chunk},        // the last byte of chunk 0 and the first of chunk 1
		{60000, 140000},           // inside chunk 0 to inside chunk 2
		{0, 2 * chunk},            // chunks 0 and 1 whole, and chunk 2's first byte
		{2*chunk - 1, size - 1},   // from chunk 1's last byte to the end
		{chunk, 2*chunk - 1},      // exactly chunk 1
		{100, 200},                // inside chunk 0
		{size - 10, size - 1},     // the file's tail
		{chunk + 1, 2*chunk + 1},  // one byte into chunk 1 to one byte into chunk 2
		{chunk / 2, size - chunk}, // all three, ragged at both ends
	} {
		lo, hi := r[0], r[1]
		t.Run(fmt.Sprintf("%d-%d", lo, hi), func(t *testing.T) {
			s, addr := gatherServer(t, nil)
			req := wreq("GET", "/multi.bin", "HTTP/1.1",
				fmt.Sprintf("Range: bytes=%d-%d", lo, hi), "Connection: close")
			for _, pass := range []string{"cold", "warm", "warm again"} {
				before := waitStats(t, s, "the previous connection to end", func(st Stats) bool { return st.OpenConns == 0 })
				got := serialTranscript(t, addr, []wireReq{req})
				after := waitStats(t, s, "the connection to end", func(st Stats) bool {
					return st.OpenConns == 0 && st.Responses == before.Responses+1
				})
				resp, err := readResponse(bufio.NewReader(bytes.NewReader(got)), "GET")
				if err != nil || resp.status != 206 || !bytes.Equal(resp.body, want[lo:hi+1]) {
					t.Fatalf("%s: %v err=%v, want 206 with bytes %d-%d", pass, resp, err, lo, hi)
				}
				if cr := resp.headers["content-range"]; cr != fmt.Sprintf("bytes %d-%d/%d", lo, hi, size) {
					t.Fatalf("%s: Content-Range %q", pass, cr)
				}
				fills := after.Fills.Started - before.Fills.Started
				if pass == "cold" {
					if fills != 1 {
						t.Fatalf("cold: %d fills, want 1", fills)
					}
					continue
				}
				if fills != 0 {
					t.Fatalf("%s: %d fills for a resident file", pass, fills)
				}
				if w := after.GatherWrites - before.GatherWrites; w != 2 {
					t.Fatalf("%s: %d socket writes, want one writev and one sendfile", pass, w)
				}
				if sf := after.BytesSendfile - before.BytesSendfile; sendfileSupported && sf != int64(hi-lo+1) {
					t.Fatalf("%s: sendfile moved %d bytes, want the window's %d", pass, sf, hi-lo+1)
				}
			}
		})
	}
}

// TestWindowRunsBreakAtDescriptor: the windows of one file can hold
// different descriptors — loops each open their own, and a refill keeps
// the chunks still resident — while a run is one sendfile from one. A
// file whose three windows were read through descriptors A, B and A
// leaves as three runs, byte-exact, each chunk looked up once: the
// chunk that ends a run is carried, pinned, into the next.
func TestWindowRunsBreakAtDescriptor(t *testing.T) {
	const chunk, size = 64 << 10, 160 << 10
	s, addr := gatherServer(t, nil)
	fsPath := filepath.Join(s.cfg.DocRoot, "multi.bin")
	fi, err := os.Stat(fsPath)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *cache.FileRef {
		f, err := os.Open(fsPath)
		if err != nil {
			t.Fatal(err)
		}
		return cache.NewFileRef(f, nil)
	}
	a, b := open(), open()
	defer a.Release()
	defer b.Release()
	sh := s.shards[0]
	sh.call(func() {
		f, started := sh.view.JoinFill(s.cfg.DocRoot+"/multi.bin", fi.Size(), fi.ModTime().Unix())
		if !started {
			t.Error("a fill was in flight for a file nobody requested")
			return
		}
		f.PublishFile(a.Acquire(), 0, chunk, nil)
		f.PublishFile(b.Acquire(), chunk, chunk, nil)
		f.PublishFile(a.Acquire(), 2*chunk, size-2*chunk, nil)
	})
	if a.Refs() != 3 || b.Refs() != 2 {
		t.Fatalf("descriptor refs A=%d B=%d, want 3 and 2 (the creator's and one per window)", a.Refs(), b.Refs())
	}

	before := s.Stats()
	got := serialTranscript(t, addr, []wireReq{wreq("GET", "/multi.bin", "HTTP/1.1", "Connection: close")})
	after := waitStats(t, s, "the connection to end", func(st Stats) bool {
		return st.OpenConns == 0 && st.Responses == before.Responses+1
	})
	resp, err := readResponse(bufio.NewReader(bytes.NewReader(got)), "GET")
	if err != nil || resp.status != 200 || !bytes.Equal(resp.body, pattern(size)) {
		t.Fatalf("response: %v err=%v", resp, err)
	}
	if f := after.Fills.Started - before.Fills.Started; f != 0 {
		t.Fatalf("%d fills for a resident file", f)
	}
	hits, misses := after.SharedChunks.Hits-before.SharedChunks.Hits, after.SharedChunks.Misses-before.SharedChunks.Misses
	if hits != 3 || misses != 0 {
		t.Fatalf("%d chunk hits and %d misses, want each of the three looked up once", hits, misses)
	}
	if w := after.GatherWrites - before.GatherWrites; w != 4 {
		t.Fatalf("%d socket writes, want the header's writev and a sendfile per run (3)", w)
	}
	if sf := after.BytesSendfile - before.BytesSendfile; sendfileSupported && sf != size {
		t.Fatalf("sendfile moved %d bytes, want %d", sf, size)
	}
	waitFor(t, "the response's references to go", func() bool { return a.Refs() == 3 && b.Refs() == 2 })
}
