package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// installDiskHook wires a test observer into the helper pool's disk
// reads via the flash/disk-read failpoint. It must run before
// newTestServer so the LIFO cleanup order clears the hook only after
// the server (and its helper goroutines) have stopped.
func installDiskHook(t *testing.T, fn func(fsPath string, off int64)) {
	t.Helper()
	failpoint.Arm(fpDiskRead.Name(), func(args ...any) error {
		fn(args[0].(string), args[1].(int64))
		return nil
	})
	t.Cleanup(func() { failpoint.Disarm(fpDiskRead.Name()) })
}

// waitFor polls a condition that the server reaches asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// rawGet speaks one HTTP/1.0 exchange and returns the body.
func rawGet(addr, path string) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(15 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\n\r\n", path)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if !strings.Contains(status, " 200 ") {
		return nil, fmt.Errorf("status %q", strings.TrimSpace(status))
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if line == "\r\n" {
			break
		}
	}
	return io.ReadAll(br)
}

// readThroughFirstByte consumes the status line and headers from a raw
// connection and returns the first body byte — proof the server is
// streaming the response.
func readThroughFirstByte(t *testing.T, br *bufio.Reader) byte {
	t.Helper()
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, " 200 ") {
		t.Fatalf("status %q", strings.TrimSpace(status))
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	b, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A miss storm — K cold connections racing for the same uncached file —
// must coalesce onto one fill: exactly one disk pass (one read per
// chunk), no matter how many requests arrived.
func TestMissStormCoalesces(t *testing.T) { forEachChunkPath(t, testMissStormCoalesces) }

func testMissStormCoalesces(t *testing.T) {
	const (
		chunk  = 8192
		chunks = 4
		k      = 12
	)
	var reads atomic.Int32
	gate := make(chan struct{})
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "storm.bin") {
			reads.Add(1)
			<-gate
		}
	})

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 4
		cfg.SendfileThreshold = -1 // force every body through the chunk cache
		cfg.Cache.ChunkBytes = chunk
	})
	content := pattern(chunk * chunks)
	mustWrite(t, root, "storm.bin", string(content))
	addr := strings.TrimPrefix(base, "http://")

	var wg sync.WaitGroup
	bodies := make([][]byte, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = rawGet(addr, "/storm.bin")
		}(i)
	}

	// Every request must register on the single in-flight fill before
	// we let the disk pass proceed.
	waitFor(t, "all requests coalesced", func() bool {
		f := s.Stats().Fills
		return f.Started == 1 && f.Joined == k-1
	})
	close(gate)
	wg.Wait()

	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], content) {
			t.Fatalf("request %d: body mismatch (%d bytes, want %d)", i, len(bodies[i]), len(content))
		}
	}
	if got := reads.Load(); got != chunks {
		t.Fatalf("disk reads = %d, want %d (one per chunk for the storm)", got, chunks)
	}
	f := s.Stats().Fills
	if f.Started != 1 || f.Joined != k-1 || f.Completed != 1 || f.Failed != 0 {
		t.Fatalf("fill stats = %+v", f)
	}
}

// Serve-while-fill: readers coalesced onto an in-progress fill receive
// body bytes as chunks land, before the fill completes — they are not
// parked until the whole file is in cache.
func TestServeWhileFillFirstByteBeforeCompletion(t *testing.T) {
	forEachChunkPath(t, testServeWhileFillFirstByteBeforeCompletion)
}

func testServeWhileFillFirstByteBeforeCompletion(t *testing.T) {
	const (
		chunk  = 8192
		chunks = 4
	)
	release := make(chan struct{})
	installDiskHook(t, func(fsPath string, off int64) {
		// Chunks 0 and 1 publish freely; the pass stalls before chunk 2.
		if strings.HasSuffix(fsPath, "swf.bin") && off == 2*chunk {
			<-release
		}
	})

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 1 // both connections land on the same shard
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
	})
	content := pattern(chunk * chunks)
	mustWrite(t, root, "swf.bin", string(content))

	// First reader starts the fill and must stream the published chunks
	// while the pass is stalled.
	connA := dialRaw(t, base)
	fmt.Fprintf(connA, "GET /swf.bin HTTP/1.0\r\n\r\n")
	brA := bufio.NewReader(connA)
	firstA := readThroughFirstByte(t, brA)

	// Second reader joins the same fill mid-flight and streams too.
	connB := dialRaw(t, base)
	fmt.Fprintf(connB, "GET /swf.bin HTTP/1.0\r\n\r\n")
	brB := bufio.NewReader(connB)
	firstB := readThroughFirstByte(t, brB)

	waitFor(t, "second reader to join the fill", func() bool {
		return s.Stats().Fills.Joined == 1
	})
	f := s.Stats().Fills
	if f.Started != 1 || f.Completed != 0 || f.Failed != 0 {
		t.Fatalf("fill stats while stalled = %+v (first bytes already served)", f)
	}
	if firstA != content[0] || firstB != content[0] {
		t.Fatalf("first bytes = %d, %d; want %d", firstA, firstB, content[0])
	}

	close(release)
	restA, err := io.ReadAll(brA)
	if err != nil {
		t.Fatal(err)
	}
	restB, err := io.ReadAll(brB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append([]byte{firstA}, restA...), content) {
		t.Fatal("reader A body mismatch")
	}
	if !bytes.Equal(append([]byte{firstB}, restB...), content) {
		t.Fatal("reader B body mismatch")
	}
	waitFor(t, "fill completion", func() bool {
		return s.Stats().Fills.Completed == 1
	})
}

// A client aborting mid-fill must not kill the fill: the disk pass runs
// to completion, the chunks stay cached, and the next request is served
// warm without touching the disk again.
func TestClientAbortMidFillLeavesFillRunning(t *testing.T) {
	forEachChunkPath(t, testClientAbortMidFillLeavesFillRunning)
}

func testClientAbortMidFillLeavesFillRunning(t *testing.T) {
	const (
		chunk  = 8192
		chunks = 4
	)
	var reads atomic.Int32
	release := make(chan struct{})
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "abort.bin") {
			reads.Add(1)
			if off == 2*chunk {
				<-release
			}
		}
	})

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 1
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
	})
	content := pattern(chunk * chunks)
	mustWrite(t, root, "abort.bin", string(content))
	addr := strings.TrimPrefix(base, "http://")

	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /abort.bin HTTP/1.0\r\n\r\n")
	br := bufio.NewReader(conn)
	readThroughFirstByte(t, br)
	conn.Close() // abort while the fill is stalled at chunk 2

	close(release)
	waitFor(t, "fill completion after abort", func() bool {
		return s.Stats().Fills.Completed == 1
	})
	if got := reads.Load(); got != chunks {
		t.Fatalf("disk reads = %d, want %d", got, chunks)
	}

	// The aborted client's fill populated the cache for everyone else.
	body, err := rawGet(addr, "/abort.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, content) {
		t.Fatal("post-abort body mismatch")
	}
	if got := reads.Load(); got != chunks {
		t.Fatalf("warm request read the disk: %d reads, want %d", got, chunks)
	}
}

// TestMissStormOneChunkTwoLoops sends K cold requests for a one-chunk
// file over two loops and pins what they cost: one read, through one
// fill that the other K-1 requests join.
func TestMissStormOneChunkTwoLoops(t *testing.T) {
	forEachChunkPath(t, testOneChunkStormCoalesces)
}

func testOneChunkStormCoalesces(t *testing.T) {
	const k = 6
	var reads atomic.Int32
	gate := make(chan struct{})
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "solo.bin") {
			reads.Add(1)
			<-gate
		}
	})

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 2
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = 8192
	})
	content := pattern(1000) // one chunk
	mustWrite(t, root, "solo.bin", string(content))
	addr := strings.TrimPrefix(base, "http://")

	var wg sync.WaitGroup
	errs := make([]error, k)
	bodies := make([][]byte, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = rawGet(addr, "/solo.bin")
		}(i)
	}
	// Every one of the K requests, on either loop, is on the one fill
	// before its single read is let through.
	waitFor(t, "all requests on one fill", func() bool {
		f := s.Stats().Fills
		return f.Started == 1 && f.Joined == k-1
	})
	close(gate)
	wg.Wait()

	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], content) {
			t.Fatalf("request %d: body mismatch", i)
		}
	}
	if got := reads.Load(); got != 1 {
		t.Fatalf("disk reads = %d, want 1 for %d requests", got, k)
	}
	if f := s.Stats().Fills; f.Started != 1 || f.Joined != k-1 || f.Completed != 1 {
		t.Fatalf("fill stats = %+v", f)
	}
}

// Torture: a trickling disk, a chunk budget far smaller than any file
// (so active fills pin past the byte limit), fast and slow readers, and
// clients aborting mid-body — run under -race in CI.
func TestServeWhileFillTorture(t *testing.T) { forEachChunkPath(t, testServeWhileFillTorture) }

func testServeWhileFillTorture(t *testing.T) {
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.Contains(fsPath, "torture") {
			time.Sleep(200 * time.Microsecond) // trickle the fill
		}
	})

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 2
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = 4096
		cfg.Cache.MapBytes = 8192 // two chunks of budget: constant eviction pressure
	})
	files := []string{"torture0.bin", "torture1.bin", "torture2.bin"}
	sizes := []int{40000, 65536, 100000}
	contents := make([][]byte, len(files))
	for i, name := range files {
		contents[i] = pattern(sizes[i])
		mustWrite(t, root, name, string(contents[i]))
	}
	addr := strings.TrimPrefix(base, "http://")

	const workers, iters = 8, 5
	var wg sync.WaitGroup
	errCh := make(chan error, workers*iters)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				which := (g + i) % len(files)
				if (g+i)%4 == 3 {
					// Abort mid-body.
					conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
					if err != nil {
						errCh <- err
						return
					}
					conn.SetDeadline(time.Now().Add(15 * time.Second))
					fmt.Fprintf(conn, "GET /%s HTTP/1.0\r\n\r\n", files[which])
					io.ReadFull(conn, make([]byte, 1024))
					conn.Close()
					continue
				}
				body, err := rawGet(addr, "/"+files[which])
				if err != nil {
					errCh <- fmt.Errorf("worker %d iter %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(body, contents[which]) {
					errCh <- fmt.Errorf("worker %d iter %d: body mismatch for %s (%d bytes, want %d)",
						g, i, files[which], len(body), len(contents[which]))
					return
				}
				if g%2 == 1 {
					time.Sleep(time.Millisecond) // slow reader cadence
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Eviction pressure must have reclaimed down to the budget once the
	// fills finished and the responses drained.
	waitFor(t, "budget reclaim", func() bool {
		return s.store.SharedStats().UsedBytes <= 8192
	})
	if f := s.Stats().Fills; f.Started == 0 {
		t.Fatalf("torture never exercised a fill: %+v", f)
	}
}
