package flash

// Tests for the connection's pipelined gathering: the complete
// heads of a burst reach the loop in one batch post, responses the loop
// commits whole are staged or corked on the connection and leave in one
// writev. What must hold is that batching and corking are invisible on
// the wire — for every segmentation of the request stream, across
// header patches and run scratch reuse, around exchanges that wait,
// ahead of direct socket writes and before every kind of close — and
// that nothing a corked response pins outlives the connection.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
)

// gatherServer starts a deterministic single-shard server for stream
// comparison: fixed clock (Date headers repeat), fixed file times (so
// do Last-Modified and ETag, across servers), revalidation off, and
// files from 512 B to 160 KiB (two.bin is a two-chunk walk, multi.bin a
// three-chunk one).
func gatherServer(t *testing.T, mutate func(*Config), register ...func(*Server)) (*Server, string) {
	t.Helper()
	root := t.TempDir()
	fixed := time.Date(1999, 6, 1, 0, 0, 0, 0, time.UTC)
	for name, size := range map[string]int{
		"s512.bin": 512, "s4k.bin": 4 << 10, "s12k.bin": 12 << 10,
		"s32k.bin": 32 << 10, "s60k.bin": 60 << 10, "two.bin": 100 << 10, "multi.bin": 160 << 10,
	} {
		if err := os.WriteFile(filepath.Join(root, name), pattern(size), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(root, name), fixed, fixed); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		DocRoot:            root,
		EventLoops:         1,
		RevalidateInterval: -1,
		Clock:              func() time.Time { return fixed },
	}
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
	return s, l.Addr().String()
}

// wireReq is one scripted request: its bytes and the method that
// frames its response.
type wireReq struct {
	method string
	wire   []byte
}

func wreq(method, target, proto string, headers ...string) wireReq {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s\r\n", method, target, proto)
	if proto == "HTTP/1.1" {
		b.WriteString("Host: t\r\n")
	}
	for _, h := range headers {
		b.WriteString(h + "\r\n")
	}
	b.WriteString("\r\n")
	return wireReq{method, []byte(b.String())}
}

// serialTranscript sends the script one request at a time over one
// connection — each response read to its last byte before the next
// request is written — and returns every byte the server sent.
func serialTranscript(t *testing.T, addr string, reqs []wireReq) []byte {
	t.Helper()
	return serialResponses(t, addr, reqs, true)
}

// serialResponses is serialTranscript for a script that need not end
// the connection: with untilClose false it returns the bytes of the
// responses alone.
func serialResponses(t *testing.T, addr string, reqs []wireReq, untilClose bool) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	var out bytes.Buffer
	br := bufio.NewReader(io.TeeReader(conn, &out))
	for i, r := range reqs {
		if _, err := conn.Write(r.wire); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := readResponse(br, r.method); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	if !untilClose {
		return out.Bytes()[:out.Len()-br.Buffered()]
	}
	if _, err := io.Copy(io.Discard, br); err != nil { // the close the script ends with
		t.Fatal(err)
	}
	return out.Bytes()
}

// segmentedTranscript writes the script's byte stream cut at the given
// offsets (ascending; nil = one write) and returns every byte the
// server sent until it closed.
func segmentedTranscript(t *testing.T, addr string, stream []byte, cuts []int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(conn)
		got <- b
	}()
	prev := 0
	for _, cut := range append(cuts, len(stream)) {
		if cut == prev {
			continue
		}
		if _, err := conn.Write(stream[prev:cut]); err != nil {
			t.Fatalf("write [%d:%d]: %v", prev, cut, err)
		}
		prev = cut
	}
	return <-got
}

func diffStreams(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	t.Fatalf("%s: stream diverges from the serial transcript at byte %d (want %d bytes, got %d)\nserial: %q\ngot:    %q",
		what, i, len(want), len(got), clip(want, i-120, i+120), clip(got, i-120, i+120))
}

// TestTorturePipelineSegmentation: one mixed 32-request burst must draw
// the same response bytes however the request stream is segmented —
// one write, one request per write, or cut at 64 random points — as it
// does sent one request at a time.
func TestTorturePipelineSegmentation(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		forEachChunkPath(t, testTorturePipelineSegmentation)
	})
}

func testTorturePipelineSegmentation(t *testing.T) {
	s, addr := gatherServer(t, nil)
	etag := fileETag(t, s, "s4k.bin")
	sizes := []string{"/s512.bin", "/s4k.bin", "/s12k.bin", "/s32k.bin"}
	var reqs []wireReq
	for i := 0; len(reqs) < 31; i++ {
		reqs = append(reqs, wreq("GET", sizes[i%len(sizes)], "HTTP/1.1"))
		switch i {
		case 1:
			reqs = append(reqs, wreq("GET", "/multi.bin", "HTTP/1.1"))
		case 3:
			reqs = append(reqs, wreq("GET", "/s4k.bin", "HTTP/1.1", "If-None-Match: "+etag))
		case 5:
			reqs = append(reqs, wreq("GET", "/missing.bin", "HTTP/1.1"))
		case 7:
			reqs = append(reqs, wreq("GET", "/s12k.bin", "HTTP/1.1", "Range: bytes=100-299"))
		case 9:
			reqs = append(reqs, wreq("HEAD", "/s32k.bin", "HTTP/1.1"))
		case 11:
			reqs = append(reqs, wreq("GET", "/s4k.bin", "HTTP/1.0", "Connection: keep-alive"))
		case 13:
			reqs = append(reqs, wreq("GET", "/multi.bin", "HTTP/1.1", "Range: bytes=65000-70000"))
		}
	}
	reqs = append(reqs, wreq("GET", "/s512.bin", "HTTP/1.1", "Connection: close"))
	if len(reqs) != 32 {
		t.Fatalf("script has %d requests, want 32", len(reqs))
	}

	want := serialTranscript(t, addr, reqs)
	for _, mark := range []string{" 304 ", " 404 ", " 206 ", "HTTP/1.0 200"} {
		if !bytes.Contains(want, []byte(mark)) {
			t.Fatalf("serial transcript has no %q response", mark)
		}
	}

	var stream []byte
	var perRequest []int
	for _, r := range reqs {
		perRequest = append(perRequest, len(stream))
		stream = append(stream, r.wire...)
	}
	diffStreams(t, "one write", want, segmentedTranscript(t, addr, stream, nil))
	diffStreams(t, "one request per write", want, segmentedTranscript(t, addr, stream, perRequest))
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cuts := make([]int, 64)
		for i := range cuts {
			cuts[i] = rng.Intn(len(stream))
		}
		sort.Ints(cuts)
		diffStreams(t, fmt.Sprintf("64 random cuts, seed %d", seed), want,
			segmentedTranscript(t, addr, stream, cuts))
	}
}

// TestGatherPatchedHeaderAliasing: fixPersistence patches a cached
// header into per-connection scratch that the next exchange
// overwrites. Two HTTP/1.0 keep-alive requests for different files (two
// patches through the same scratch), two HTTP/1.0 keep-alive 304s (each
// file's one cached 304, built for HTTP/1.1, patched the same way) and
// HTTP/1.1 requests (the cached bytes themselves), pipelined back to
// back, must arrive byte-exact.
func TestGatherPatchedHeaderAliasing(t *testing.T) {
	forEachConnEngine(t, testGatherPatchedHeaderAliasing)
}

func testGatherPatchedHeaderAliasing(t *testing.T) {
	_, addr := gatherServer(t, nil)
	// Warm the header cache with HTTP/1.1 keep-alive variants, so the
	// 1.0 requests below are the ones served from a patch.
	serialTranscript(t, addr, []wireReq{
		wreq("GET", "/s512.bin", "HTTP/1.1"),
		wreq("GET", "/s512.bin", "HTTP/1.1", "If-None-Match: *"),
		wreq("GET", "/s4k.bin", "HTTP/1.1", "If-None-Match: *"),
		wreq("GET", "/s4k.bin", "HTTP/1.1", "Connection: close"),
	})
	reqs := []wireReq{
		wreq("GET", "/s512.bin", "HTTP/1.0", "Connection: keep-alive"),
		wreq("GET", "/s4k.bin", "HTTP/1.0", "Connection: keep-alive"),
		wreq("GET", "/s512.bin", "HTTP/1.0", "Connection: keep-alive", "If-None-Match: *"),
		wreq("GET", "/s4k.bin", "HTTP/1.0", "Connection: keep-alive", "If-None-Match: *"),
		wreq("GET", "/s512.bin", "HTTP/1.1"),
		wreq("GET", "/s4k.bin", "HTTP/1.1", "If-None-Match: *"),
		wreq("HEAD", "/s4k.bin", "HTTP/1.0", "Connection: keep-alive"),
		wreq("GET", "/s512.bin", "HTTP/1.1", "Connection: close"),
	}
	want := serialTranscript(t, addr, reqs)
	if n := bytes.Count(want, []byte("HTTP/1.0 200")); n != 3 {
		t.Fatalf("serial transcript has %d HTTP/1.0 200s, want 3", n)
	}
	if n := bytes.Count(want, []byte("HTTP/1.0 304")); n != 2 {
		t.Fatalf("serial transcript has %d HTTP/1.0 304s, want 2", n)
	}
	// Both shapes say keep-alive, so the patch is the header a cold
	// server builds for the 1.0 request itself, byte for byte.
	_, cold := gatherServer(t, nil)
	built := serialResponses(t, cold, reqs[3:4], false)
	if !bytes.Contains(want, built) {
		t.Fatalf("patched 304 differs from the one built for its request:\nbuilt: %q", built)
	}
	var stream []byte
	for _, r := range reqs {
		stream = append(stream, r.wire...)
	}
	diffStreams(t, "pipelined", want, segmentedTranscript(t, addr, stream, nil))
}

// TestGatherExpectContinueNotOvertaken: the handler's 100 Continue goes
// straight to the socket, so the three responses corked ahead of it
// must be on the wire first.
func TestGatherExpectContinueNotOvertaken(t *testing.T) {
	forEachConnEngine(t, testGatherExpectContinueNotOvertaken)
}

func testGatherExpectContinueNotOvertaken(t *testing.T) {
	_, addr := gatherServer(t, nil, echoRoute)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	get := wreq("GET", "/s4k.bin", "HTTP/1.1").wire
	body := "after the gets"
	burst := bytes.Repeat(get, 3)
	burst = append(burst, fmt.Sprintf("POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(body))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != 200 || len(resp.body) != 4<<10 {
			t.Fatalf("response %d ahead of the 100: %+v err=%v", i, resp, err)
		}
	}
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "HTTP/1.1 100 ") {
		t.Fatalf("after three 200s: %q err=%v, want HTTP/1.1 100", line, err)
	}
	br.ReadString('\n')
	fmt.Fprint(conn, body)
	resp, err := readResponse(br, "POST")
	if err != nil || resp.status != 200 || string(resp.body) != fmt.Sprintf("n:%d:%s", len(body), body) {
		t.Fatalf("echo: %+v err=%v", resp, err)
	}
}

// burstThenClose writes the burst in one segment and expects n intact
// 200s for /s4k.bin, then a final response with the given status (0:
// none), then the close.
func burstThenClose(t *testing.T, addr string, burst []byte, n, finalStatus int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != 200 || !bytes.Equal(resp.body, pattern(4<<10)) {
			t.Fatalf("response %d of %d before the close: err=%v %+v", i+1, n, err, resp)
		}
	}
	if finalStatus != 0 {
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != finalStatus {
			t.Fatalf("closing response: err=%v %+v, want %d", err, resp, finalStatus)
		}
	}
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the closing response: byte %q err=%v, want EOF", b, err)
	}
}

// TestGatherEarlierResponsesSurviveClose: when request k of a burst
// ends the connection, responses 1…k-1 — corked at that moment — still
// arrive intact before the close.
func TestGatherEarlierResponsesSurviveClose(t *testing.T) {
	get := wreq("GET", "/s4k.bin", "HTTP/1.1").wire

	t.Run("malformed-head", func(t *testing.T) {
		forEachConnEngine(t, func(t *testing.T) {
			_, addr := gatherServer(t, nil)
			for _, tc := range []struct {
				head   string
				status int
			}{
				{"BAD\x01LINE / HTTP/1.1\r\n\r\n", 400},
				{"GET /" + strings.Repeat("t", 9<<10) + " HTTP/1.1\r\nHost: t\r\n\r\n", 414},
				{"GET /s4k.bin HTTP/2.0\r\nHost: t\r\n\r\n", 501},
			} {
				burst := append(bytes.Repeat(get, 3), tc.head...)
				burstThenClose(t, addr, append(burst, get...), 3, tc.status)
			}
		})
	})

	t.Run("failed-fill", func(t *testing.T) {
		forEachConnEngine(t, func(t *testing.T) {
			// Armed before the server starts, so cleanup disarms it
			// only after the helpers have stopped.
			fault := errors.New("test: injected disk fault")
			failpoint.Arm(fpDiskRead.Name(), func(args ...any) error {
				if strings.HasSuffix(args[0].(string), "s60k.bin") {
					return fault
				}
				return nil
			})
			t.Cleanup(func() { failpoint.Disarm(fpDiskRead.Name()) })
			_, addr := gatherServer(t, nil)
			// The fill for the cold file fails after its header was
			// promised: the only honest answer is the close.
			burst := append(bytes.Repeat(get, 3), wreq("GET", "/s60k.bin", "HTTP/1.1").wire...)
			burstThenClose(t, addr, append(burst, get...), 3, 0)
		})
	})

	t.Run("shutdown-503", func(t *testing.T) {
		forEachConnEngine(t, func(t *testing.T) {
			// The access log is written on the loop when a response is
			// settled: its second line sets the server's stop signal, so
			// the burst's third request is the one that draws the 503.
			var srv atomic.Pointer[Server]
			lines := 0
			logw := writerFunc(func(p []byte) (int, error) {
				if lines++; lines == 2 {
					srv.Load().stopping.Store(true)
				}
				return len(p), nil
			})
			s, addr := gatherServer(t, func(cfg *Config) { cfg.AccessLog = logw })
			srv.Store(s)
			burstThenClose(t, addr, bytes.Repeat(get, 4), 2, 503)
		})
	})
}

// pinsOutstanding reports, from the loop, how many pin FIFO entries the
// server's (single) connection holds for committed responses it has
// not yet reported written: one per chunk of each.
func pinsOutstanding(s *Server) (n int) {
	s.mu.Lock()
	var c *conn
	for k := range s.conns {
		c = k
	}
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	s.shards[0].call(func() { n = len(c.pins) - c.pinHead })
	return n
}

// chunkOf returns the cached chunk 0 of a docroot file, unpinned — a
// handle for reading its pin count later.
func chunkOf(t *testing.T, s *Server, rel string) *cache.Chunk {
	t.Helper()
	return chunkAt(t, s, rel, 0)
}

// chunkAt is chunkOf for chunk idx.
func chunkAt(t *testing.T, s *Server, rel string, idx int) *cache.Chunk {
	t.Helper()
	var ch *cache.Chunk
	sh := s.shards[0]
	sh.call(func() {
		pe, ok := sh.view.PeekPath("/" + rel)
		if !ok {
			return
		}
		key := cache.ChunkKey{Path: pe.Translated, Index: idx}
		if ch = sh.view.Lookup(key, pe.ModTime); ch != nil {
			sh.view.Release(ch)
		}
	})
	if ch == nil {
		t.Fatalf("%s: chunk %d not cached", rel, idx)
	}
	return ch
}

// TestGatherStalledClientReleasesPins: a client that pipelines far more
// than the socket buffers hold and never reads. The connection may
// keep pinned no more than gatherCap's bound — what is corked plus the
// one response committed behind it — WriteTimeout must close it, and
// every chunk pin of every run and the descriptor reference must come
// back.
func TestGatherStalledClientReleasesPins(t *testing.T) {
	for _, tc := range []struct {
		file         string
		size, chunks int
	}{
		{"s60k.bin", 60 << 10, 1},
		{"multi.bin", 160 << 10, 3},
	} {
		t.Run(tc.file, func(t *testing.T) { testGatherStalledClient(t, tc.file, tc.size, tc.chunks) })
	}
}

func testGatherStalledClient(t *testing.T, file string, size, chunks int) {
	s, addr := gatherServer(t, func(cfg *Config) {
		cfg.WriteTimeout = 300 * time.Millisecond
	})
	serialTranscript(t, addr, []wireReq{wreq("GET", "/"+file, "HTTP/1.1", "Connection: close")})
	ch := chunkOf(t, s, file)
	waitFor(t, "warm-up pin released", func() bool {
		refs := -1
		s.shards[0].call(func() { refs = ch.Refs() })
		return refs == 0
	})
	before := s.Stats()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	const depth = 1000 // 60 MB of responses and more: no socket buffer takes that
	if _, err := conn.Write(bytes.Repeat(wreq("GET", "/"+file, "HTTP/1.1").wire, depth)); err != nil {
		t.Fatal(err)
	}
	// While the writev is parked, the pin FIFO holds the corked list —
	// as many responses as fit under the cap, at least one — plus the
	// one reply committed behind it, each with one entry per chunk.
	most := (max(gatherCap/size, 1) + 1) * chunks
	maxSeen := 0
	waitFor(t, "the connection to be adopted", func() bool { return s.Active() == 1 })
	waitFor(t, "WriteTimeout to close the stalled connection", func() bool {
		if n := pinsOutstanding(s); n > maxSeen {
			maxSeen = n
		}
		return s.Active() == 0
	})
	if maxSeen == 0 || maxSeen > most {
		t.Fatalf("saw up to %d chunks pinned by unwritten responses, want 1..%d (gatherCap %d)", maxSeen, most, gatherCap)
	}
	st := waitStats(t, s, "the failed flush to be counted", func(st Stats) bool {
		return st.Errors == before.Errors+1 && st.OpenConns == 0
	})
	if st.Responses-before.Responses >= depth {
		t.Fatalf("all %d responses were committed to a client that never read", depth)
	}
	sh := s.shards[0]
	sh.call(func() {
		pe, _ := sh.view.PeekPath("/" + file)
		for i := 0; i < chunks; i++ {
			c := sh.view.Lookup(cache.ChunkKey{Path: pe.Translated, Index: i}, pe.ModTime)
			if c == nil {
				t.Errorf("chunk %d no longer cached", i)
				continue
			}
			if refs := c.Refs(); refs != 1 {
				t.Errorf("chunk %d still pinned %d times after the connection closed", i, refs-1)
			}
			sh.view.Release(c)
		}
		if r := entryRef(pe); r == nil || r.Refs() != 1 {
			t.Errorf("descriptor refs = %v, want only the cache's own", r)
		}
	})
}

// TestGatherCloseWithCorkedResponses: Server.Close while a connection
// holds a non-empty gather list (its goroutine is parked behind a
// gated miss) must still unpin what the list references.
func TestGatherCloseWithCorkedResponses(t *testing.T) {
	// The miss behind the corked responses stays on its helper until
	// Close has aborted the connections (it sets closed and aborts
	// under one lock), so the third response can never be produced.
	var srv atomic.Pointer[Server]
	installDiskHook(t, func(fsPath string, off int64) {
		if !strings.HasSuffix(fsPath, "s12k.bin") {
			return
		}
		for s := srv.Load(); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
		}
	})
	s, addr := gatherServer(t, nil)
	srv.Store(s)
	// two.bin is two chunks: each corked response is a run holding two
	// pins, and two of them fit under the cap.
	serialTranscript(t, addr, []wireReq{wreq("GET", "/two.bin", "HTTP/1.1", "Connection: close")})
	chs := []*cache.Chunk{chunkAt(t, s, "two.bin", 0), chunkAt(t, s, "two.bin", 1)}
	var ref *cache.FileRef
	s.shards[0].call(func() {
		pe, _ := s.shards[0].view.PeekPath("/two.bin")
		ref = entryRef(pe)
	})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := bytes.Repeat(wreq("GET", "/two.bin", "HTTP/1.1").wire, 2)
	burst = append(burst, wreq("GET", "/s12k.bin", "HTTP/1.1").wire...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "two two-chunk responses corked behind the gated miss", func() bool {
		return pinsOutstanding(s) == 4
	})
	s.shards[0].call(func() {
		for i, ch := range chs {
			if refs := ch.Refs(); refs != 2 {
				t.Errorf("chunk %d pinned %d times with two responses corked, want 2", i, refs)
			}
		}
	})
	s.Close()
	for i, ch := range chs {
		if refs := ch.Refs(); refs != 0 {
			t.Fatalf("chunk %d still pinned %d times after Close", i, refs)
		}
	}
	if refs := ref.Refs(); refs != 0 {
		t.Fatalf("descriptor refs = %d after Close, want 0", refs)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, _ := io.ReadAll(conn); len(b) != 0 {
		t.Fatalf("%d response bytes reached the client; the corked responses should have died with the server", len(b))
	}
}

// burstStats sends, rounds times over one connection, depth pipelined
// requests for /s4k.bin in one write and reads every response; it
// returns the counter deltas.
func burstStats(t *testing.T, s *Server, addr string, depth, rounds int) (responses, writes uint64) {
	t.Helper()
	before := s.Stats()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for r := 0; r < rounds; r++ {
		if _, err := conn.Write(bytes.Repeat(wreq("GET", "/s4k.bin", "HTTP/1.1").wire, depth)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if resp, err := readResponse(br, "GET"); err != nil || resp.status != 200 {
				t.Fatalf("round %d response %d: %+v err=%v", r, i, resp, err)
			}
		}
	}
	conn.Close()
	// The write counts are folded in when the flush is reported, which
	// may trail the bytes; the connection's end orders after both.
	after := waitStats(t, s, "the connection to end", func(st Stats) bool {
		return st.OpenConns == before.OpenConns && st.Responses >= before.Responses+uint64(depth*rounds)
	})
	return after.Responses - before.Responses, after.GatherWrites - before.GatherWrites
}

// TestGatherWrites makes "socket writes per response" a server-side
// number: a 16-deep burst of small files leaves in at most 4 writes
// (the burst may arrive in more than one segment), a client that waits
// for each reply costs exactly one write per response.
func TestGatherWrites(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		s, addr := gatherServer(t, nil)
		burstStats(t, s, addr, 1, 1) // warm the caches
		responses, writes := burstStats(t, s, addr, 16, 1)
		if responses != 16 || writes == 0 || writes > 4 {
			t.Fatalf("16-deep burst: %d responses in %d socket writes, want 16 in 1..4", responses, writes)
		}
	})
	t.Run("serial", func(t *testing.T) {
		forEachConnEngine(t, func(t *testing.T) {
			s, addr := gatherServer(t, nil)
			burstStats(t, s, addr, 1, 1)
			responses, writes := burstStats(t, s, addr, 1, 8)
			if responses != 8 || writes != 8 {
				t.Fatalf("one at a time: %d responses in %d socket writes, want 8 in 8", responses, writes)
			}
		})
	})
}

// TestGatherRunWholeResponse: a resident multi-chunk file is one run —
// one committed response, one socket write.
func TestGatherRunWholeResponse(t *testing.T) {
	get := wreq("GET", "/multi.bin", "HTTP/1.1")
	script := []wireReq{get, get, wreq("GET", "/multi.bin", "HTTP/1.1", "Connection: close")}
	forEachConnEngine(t, func(t *testing.T) {
		s, addr := gatherServer(t, nil)
		serialTranscript(t, addr, script[2:]) // warm: the file is resident from here on
		before := waitStats(t, s, "the warm-up connection to end", func(st Stats) bool { return st.OpenConns == 0 })
		got := serialTranscript(t, addr, script)
		after := waitStats(t, s, "the connection to end", func(st Stats) bool {
			return st.OpenConns == 0 && st.Responses == before.Responses+3
		})
		if w := after.GatherWrites - before.GatherWrites; w != 3 {
			t.Errorf("three resident 160 KiB responses left in %d socket writes, want 3", w)
		}
		if f := after.Fills.Started - before.Fills.Started; f != 0 {
			t.Errorf("%d fills for a resident file", f)
		}
		br := bufio.NewReader(bytes.NewReader(got))
		for i := range script {
			resp, err := readResponse(br, "GET")
			if err != nil || resp.status != 200 || !bytes.Equal(resp.body, pattern(160<<10)) {
				t.Fatalf("response %d: %v err=%v", i, resp, err)
			}
		}
	})
}

// TestGatherRunRangeAndPatchedHeader: a 206 whose window starts inside
// chunk 0 and ends inside chunk 2, and an HTTP/1.0 keep-alive request
// whose header is a patched copy of the cached one, ride their runs
// byte-exact — alone and in one pipelined burst.
func TestGatherRunRangeAndPatchedHeader(t *testing.T) {
	const lo, hi = 60000, 140000
	script := []wireReq{
		wreq("GET", "/multi.bin", "HTTP/1.1"), // builds the cached header
		wreq("GET", "/multi.bin", "HTTP/1.1", fmt.Sprintf("Range: bytes=%d-%d", lo, hi)),
		wreq("GET", "/multi.bin", "HTTP/1.0", "Connection: keep-alive"),
		wreq("GET", "/multi.bin", "HTTP/1.1", fmt.Sprintf("Range: bytes=%d-%d", lo, hi)),
		wreq("GET", "/two.bin", "HTTP/1.0"),
	}
	want := pattern(160 << 10)
	forEachConnEngine(t, func(t *testing.T) {
		_, addr := gatherServer(t, nil)
		serial := serialTranscript(t, addr, script)
		br := bufio.NewReader(bytes.NewReader(serial))
		for i, wantBody := range [][]byte{want, want[lo : hi+1], want, want[lo : hi+1], pattern(100 << 10)} {
			resp, err := readResponse(br, "GET")
			if err != nil || !bytes.Equal(resp.body, wantBody) {
				t.Fatalf("response %d: err=%v, body %d bytes, want %d", i, err, len(resp.body), len(wantBody))
			}
			if i == 1 && (resp.status != 206 || resp.headers["content-range"] != fmt.Sprintf("bytes %d-%d/%d", lo, hi, 160<<10)) {
				t.Fatalf("range response: status %d, Content-Range %q", resp.status, resp.headers["content-range"])
			}
			if i == 2 && (resp.proto != "HTTP/1.0" || !strings.EqualFold(resp.headers["connection"], "keep-alive")) {
				t.Fatalf("patched header: proto %s, Connection %q", resp.proto, resp.headers["connection"])
			}
		}
		var stream []byte
		for _, r := range script {
			stream = append(stream, r.wire...)
		}
		diffStreams(t, "one pipelined burst", serial, segmentedTranscript(t, addr, stream, nil))
	})
}

// TestGatherRunServeWhileFill: the first byte is not hostage to the
// last. With the disk pass of a cold three-chunk file held before its
// third chunk, the first two reach the client; the third follows when
// the pass goes on.
func TestGatherRunServeWhileFill(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		const chunk = 64 << 10
		gate := make(chan struct{})
		installDiskHook(t, func(fsPath string, off int64) {
			if strings.HasSuffix(fsPath, "multi.bin") && off == 2*chunk {
				<-gate
			}
		})
		_, addr := gatherServer(t, nil)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			close(gate)
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(wreq("GET", "/multi.bin", "HTTP/1.1", "Connection: close").wire); err != nil {
			close(gate)
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if first := readThroughFirstByte(t, br); first != pattern(1)[0] {
			close(gate)
			t.Fatalf("first body byte = %d", first)
		}
		head := make([]byte, 2*chunk-1)
		_, err = io.ReadFull(br, head) // chunks 0 and 1, while chunk 2 is held
		close(gate)
		if err != nil {
			t.Fatalf("reading the first two chunks with the third held: %v", err)
		}
		rest, err := io.ReadAll(br)
		if err != nil {
			t.Fatal(err)
		}
		want := pattern(160 << 10)
		if got := append(head, rest...); !bytes.Equal(got, want[1:]) {
			t.Fatalf("body differs: %d bytes after the first, want %d", len(got), len(want)-1)
		}
	})
}

// TestGatherRunSplitsAtCap: a response larger than gatherCap leaves in
// runs of at most the cap — in order, byte-exact, one socket write per
// run.
func TestGatherRunSplitsAtCap(t *testing.T) {
	const chunk = 64 << 10
	size := 2*gatherCap + 3*chunk/2 // two full runs and a ragged third
	s, addr := gatherServer(t, func(cfg *Config) {
		cfg.SendfileThreshold = -1
		if err := os.WriteFile(filepath.Join(cfg.DocRoot, "huge.bin"), pattern(size), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	get := wreq("GET", "/huge.bin", "HTTP/1.1", "Connection: close")
	serialTranscript(t, addr, []wireReq{get}) // warm
	before := waitStats(t, s, "the warm-up connection to end", func(st Stats) bool { return st.OpenConns == 0 })
	got := serialTranscript(t, addr, []wireReq{get})
	after := waitStats(t, s, "the connection to end", func(st Stats) bool {
		return st.OpenConns == 0 && st.Responses == before.Responses+1
	})
	resp, err := readResponse(bufio.NewReader(bytes.NewReader(got)), "GET")
	if err != nil || resp.status != 200 || !bytes.Equal(resp.body, pattern(size)) {
		t.Fatalf("response: %v err=%v", resp, err)
	}
	if w := after.GatherWrites - before.GatherWrites; w != 3 {
		t.Fatalf("%d bytes left in %d socket writes, want 3 runs (gatherCap %d)", size, w, gatherCap)
	}
}

// loopMsgDeltas warms one connection with a depth-deep pipelined burst
// for /s4k.bin, then sends rounds more of them over it, reading every
// response, and returns the Responses and LoopMsgs deltas of those
// rounds. The warm-up's flush report is in before the first count; the
// last round's may or may not be in the second.
func loopMsgDeltas(t *testing.T, s *Server, addr string, depth, rounds int) (responses, msgs uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	burst := bytes.Repeat(wreq("GET", "/s4k.bin", "HTTP/1.1").wire, depth)
	round := func() {
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if resp, err := readResponse(br, "GET"); err != nil || resp.status != 200 {
				t.Fatalf("response %d: %+v err=%v", i, resp, err)
			}
		}
	}
	round()
	waitFor(t, "the warm-up flush to be reported", func() bool { return pinsOutstanding(s) == 0 })
	before := s.Stats()
	for r := 0; r < rounds; r++ {
		round()
	}
	after := s.Stats()
	return after.Responses - before.Responses, after.LoopMsgs - before.LoopMsgs
}

// TestGatherLoopMessages makes the loop hand-offs a server-side count.
// A warm 16-deep burst reaches the loop in one batch post and leaves in
// one flush report: at most 3 loop messages for 16 responses, where a
// post per request costs at least 17. A client that waits for each
// reply costs what it always did, an exchange and a flush report per
// response. A connection that carries one Connection: close request
// costs exactly two: its exchange, and its end, which carries the last
// flush's report — admission posts nothing.
func TestGatherLoopMessages(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		s, addr := gatherServer(t, nil)
		responses, msgs := loopMsgDeltas(t, s, addr, 16, 1)
		if responses != 16 || msgs == 0 || msgs > 3 {
			t.Fatalf("16-deep burst: %d responses for %d loop messages, want 16 for 1..3", responses, msgs)
		}
	})
	t.Run("serial", func(t *testing.T) {
		s, addr := gatherServer(t, nil)
		responses, msgs := loopMsgDeltas(t, s, addr, 1, 8)
		if responses != 8 || msgs < 2*8-1 || msgs > 2*8 {
			t.Fatalf("one at a time: %d responses for %d loop messages, want 8 for 15..16", responses, msgs)
		}
	})
	t.Run("churn", func(t *testing.T) {
		const conns = 100
		s, addr := gatherServer(t, nil)
		get := func() {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := nc.Write(wreq("GET", "/s4k.bin", "HTTP/1.1", "Connection: close").wire); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(nc)
			if resp, err := readResponse(br, "GET"); err != nil || resp.status != 200 {
				t.Fatalf("response: %+v err=%v", resp, err)
			}
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("after the response: %v, want EOF", err)
			}
		}
		ended := func() bool { st := s.Stats(); return st.OpenConns == 0 }
		get() // warm the caches
		waitFor(t, "the warm-up connection to end", ended)
		before := s.Stats()
		for i := 0; i < conns; i++ {
			get()
		}
		waitFor(t, "every connection to end", ended)
		after := s.Stats()
		responses, msgs := after.Responses-before.Responses, after.LoopMsgs-before.LoopMsgs
		if responses != conns || msgs != 2*conns {
			t.Fatalf("%d connections: %d responses for %d loop messages (%.2f each), want %d for %d",
				conns, responses, msgs, float64(msgs)/conns, conns, 2*conns)
		}
	})
	t.Run("reject", func(t *testing.T) {
		// A head the reader refuses rides the batch post of the heads
		// ahead of it, as its last slot: three warm GETs and a malformed
		// head cost the post and the connection's end, which carries the
		// last flush's report.
		s, addr := gatherServer(t, nil)
		get := wreq("GET", "/s4k.bin", "HTTP/1.1").wire
		ended := func() bool { st := s.Stats(); return st.OpenConns == 0 }
		burstThenClose(t, addr, wreq("GET", "/s4k.bin", "HTTP/1.1", "Connection: close").wire, 1, 0) // warm the caches
		waitFor(t, "the warm-up connection to end", ended)
		before := s.Stats()
		burst := append(bytes.Repeat(get, 3), "BAD\x01LINE / HTTP/1.1\r\n\r\n"...)
		burstThenClose(t, addr, burst, 3, 400)
		waitFor(t, "the connection to end", ended)
		after := s.Stats()
		if responses, msgs := after.Responses-before.Responses, after.LoopMsgs-before.LoopMsgs; responses != 4 || msgs != 2 {
			t.Fatalf("3 GETs and a malformed head: %d responses for %d loop messages, want 4 for 2", responses, msgs)
		}
	})
}

// burstOf concatenates a script's requests into one stream.
func burstOf(reqs []wireReq) []byte {
	var b []byte
	for _, r := range reqs {
		b = append(b, r.wire...)
	}
	return b
}

// holdDiskRead holds every disk read of the file named suffix until
// the returned release is called (also on cleanup); held reports that
// one has arrived. Install it after the last server whose reads must
// not be held has served them: it is process-wide.
func holdDiskRead(t *testing.T, suffix string) (held func() bool, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var arrived atomic.Bool
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, suffix) {
			arrived.Store(true)
			<-gate
		}
	})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return arrived.Load, release
}

// TestGatherBatchColdMiddle: a cold file in the middle of a warm burst
// leaves the batch waiting on its fill, held at flash/disk-read; the
// warm followers are answered after it, in order, and the stream is
// the one-request-at-a-time transcript.
func TestGatherBatchColdMiddle(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		script := []wireReq{
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/s60k.bin", "HTTP/1.1"),
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("HEAD", "/s12k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1", "Connection: close"),
		}
		// The same bytes from a second server — fixed clock and file
		// times — given the same warm-up (it picks the cached headers).
		warm := []wireReq{
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/s12k.bin", "HTTP/1.1", "Connection: close"),
		}
		_, ref := gatherServer(t, nil)
		serialTranscript(t, ref, warm)
		want := serialTranscript(t, ref, script)

		held, release := holdDiskRead(t, "s60k.bin")
		s, addr := gatherServer(t, nil)
		serialTranscript(t, addr, warm)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(burstOf(script)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the cold file's fill to be held", held)
		waitFor(t, "the two warm responses ahead of it staged", func() bool { return pinsOutstanding(s) == 2 })
		release()
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		diffStreams(t, "burst around a cold file", want, got)
	})
}

// TestGatherBatchCloseMidBurst: a Connection: close request in the
// middle of a burst ends it — nothing after it is answered.
func TestGatherBatchCloseMidBurst(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		script := []wireReq{
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/s4k.bin", "HTTP/1.1", "Connection: close"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
		}
		_, addr := gatherServer(t, nil)
		want := serialTranscript(t, addr, script[:3])
		diffStreams(t, "burst with a close in the middle", want,
			segmentedTranscript(t, addr, burstOf(script), nil))
	})
}

// TestGatherBatchMixedProtocols: one batch that patches a cached header
// into the connection's scratch (HTTP/1.0 keep-alive), overwrites that
// scratch with the next patch, serves the cached bytes themselves
// (HTTP/1.1), and sends runs of several chunk windows (a resident
// three-chunk file, a 206 across a chunk boundary) through the run
// scratch the next walk overwrites. Every response of the batch must
// arrive byte-exact.
func TestGatherBatchMixedProtocols(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		_, addr := gatherServer(t, nil)
		// Warm the files and the header cache with HTTP/1.1 keep-alive
		// variants, so the 1.0 requests below are served from patches.
		serialTranscript(t, addr, []wireReq{
			wreq("GET", "/multi.bin", "HTTP/1.1"),
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1", "Connection: close"),
		})
		script := []wireReq{
			wreq("GET", "/multi.bin", "HTTP/1.0", "Connection: keep-alive"),
			wreq("GET", "/s4k.bin", "HTTP/1.0", "Connection: keep-alive"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/multi.bin", "HTTP/1.1", "Range: bytes=60000-70000"),
			wreq("GET", "/s4k.bin", "HTTP/1.0", "Connection: keep-alive"),
			wreq("GET", "/multi.bin", "HTTP/1.1", "Range: bytes=130000-140000"),
			wreq("GET", "/s512.bin", "HTTP/1.0"),
		}
		want := serialTranscript(t, addr, script)
		if n := bytes.Count(want, []byte("HTTP/1.0 200")); n != 4 {
			t.Fatalf("serial transcript has %d HTTP/1.0 responses, want 4", n)
		}
		if n := bytes.Count(want, []byte(" 206 ")); n != 2 {
			t.Fatalf("serial transcript has %d 206 responses, want 2", n)
		}
		diffStreams(t, "one batch", want, segmentedTranscript(t, addr, burstOf(script), nil))
	})
}

// TestGatherBatchShutdown: Server.Shutdown while the middle exchange of
// a batch is held at flash/disk-read. The held response ends the
// connection when it completes; the responses staged ahead of it still
// arrive intact, and nothing after it is answered.
func TestGatherBatchShutdown(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		script := []wireReq{
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/s60k.bin", "HTTP/1.1"),
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
		}
		warm := []wireReq{
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1", "Connection: close"),
		}
		_, ref := gatherServer(t, nil)
		serialTranscript(t, ref, warm)
		want := serialResponses(t, ref, script[:3], false)

		held, release := holdDiskRead(t, "s60k.bin")
		s, addr := gatherServer(t, nil)
		serialTranscript(t, addr, warm)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(burstOf(script)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the cold file's fill to be held", held)
		shut := make(chan error, 1)
		go func() { shut <- s.Shutdown(10 * time.Second) }()
		waitFor(t, "the shard to stop extending keep-alive", s.stopping.Load)
		release()
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		diffStreams(t, "burst cut by Shutdown", want, got)
		if err := <-shut; err != nil {
			t.Fatal(err)
		}
	})
}

// TestGatherBatchMultiChunk: resident three-chunk files inside one
// batch leave byte-exact, each as one run, and the connection sends
// the whole burst in one socket write.
func TestGatherBatchMultiChunk(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		s, addr := gatherServer(t, nil)
		script := []wireReq{
			wreq("GET", "/s4k.bin", "HTTP/1.1"),
			wreq("GET", "/multi.bin", "HTTP/1.1"),
			wreq("GET", "/s512.bin", "HTTP/1.1"),
			wreq("GET", "/multi.bin", "HTTP/1.1"),
			wreq("GET", "/s4k.bin", "HTTP/1.1", "Connection: close"),
		}
		want := serialTranscript(t, addr, script) // warm: resident from here on
		before := waitStats(t, s, "the warm-up connection to end", func(st Stats) bool { return st.OpenConns == 0 })
		diffStreams(t, "one batch", want, segmentedTranscript(t, addr, burstOf(script), nil))
		after := waitStats(t, s, "the connection to end", func(st Stats) bool {
			return st.OpenConns == 0 && st.Responses == before.Responses+5
		})
		if f := after.Fills.Started - before.Fills.Started; f != 0 {
			t.Errorf("%d fills for resident files", f)
		}
		if w := after.GatherWrites - before.GatherWrites; w != 1 {
			t.Errorf("a %d-byte burst left in %d socket writes, want 1", len(want), w)
		}
	})
}
