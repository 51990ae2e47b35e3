package flash

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
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// The chaos suite arms failpoints against live servers mid-load and
// asserts three invariants: no crash or hang, every reject is a
// well-formed 503 with Retry-After, and behavior fully recovers once
// the fault lifts. CI runs it under -race with `-run 'Chaos'`, which
// the flattened matrix labels below keep selectable.

// forEachChaosMatrix runs fn once per (conn-engine label × chunk path)
// combination, like forEachProxyMatrix but labeled "chaos-" so the CI
// chaos step selects the suite.
func forEachChaosMatrix(t *testing.T, fn func(t *testing.T)) {
	for _, ce := range connEngineLabels {
		for _, path := range chunkPaths {
			t.Run(fmt.Sprintf("chaos-connengine=%s-engine=%s", ce, path), func(t *testing.T) {
				t.Cleanup(failpoint.DisarmAll)
				useChunkPath(t, path)
				fn(t)
			})
		}
	}
}

// getStatus is get without the fatal-on-transport-error behavior: chaos
// tests expect some requests to die mid-flight.
func getStatus(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// waitFor200 retries url until it answers 200 or the deadline passes —
// the standard "fault lifted, server must recover" probe.
func waitFor200(t *testing.T, client *http.Client, url string, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	var last error
	for time.Now().Before(deadline) {
		status, _, err := getStatus(client, url)
		if err == nil && status == 200 {
			return
		}
		last = fmt.Errorf("status=%d err=%v", status, err)
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no recovery within %v: %v", wait, last)
}

// TestChaosDiskFaultsDuringLoad arms the disk-read failpoint against
// concurrent cold misses: faulted fills fail fast — a 500 when the
// fault lands before the header, a dropped connection when it lands
// mid-stream — never hang, and never poison the cache. Warm entries
// keep serving 200 throughout, and the same paths serve their correct
// bytes once the fault lifts.
func TestChaosDiskFaultsDuringLoad(t *testing.T) {
	forEachChaosMatrix(t, func(t *testing.T) {
		s, base := newTestServer(t, nil)
		client := &http.Client{}
		t.Cleanup(client.CloseIdleConnections)

		// Cold targets, written after startup so nothing has cached them.
		const nFiles = 8
		for i := 0; i < nFiles; i++ {
			mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("chaos/f%d.txt", i),
				fmt.Sprintf("chaos file %d content\n", i))
		}
		// Warm one entry before the fault: it must ride it out.
		if status, _, err := getStatus(client, base+"/hello.txt"); err != nil || status != 200 {
			t.Fatalf("warmup: status=%d err=%v", status, err)
		}

		failpoint.Arm(fpDiskRead.Name(), failpoint.ErrHook(errors.New("chaos: injected disk fault")))

		var wg sync.WaitGroup
		var faulted atomic.Int64
		errs := make(chan error, nFiles+4)
		for i := 0; i < nFiles; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := &http.Client{}
				defer c.CloseIdleConnections()
				status, _, err := getStatus(c, fmt.Sprintf("%s/chaos/f%d.txt", base, i))
				switch {
				case err != nil: // fault landed mid-stream: conn dropped
					faulted.Add(1)
				case status == 500: // fault landed before the header
					faulted.Add(1)
				case status != 200:
					errs <- fmt.Errorf("cold GET %d under fault: status %d", i, status)
				}
			}(i)
		}
		// The warm entry serves from cache, untouched by the disk fault.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &http.Client{}
				defer c.CloseIdleConnections()
				if status, body, err := getStatus(c, base+"/hello.txt"); err != nil || status != 200 || string(body) != "hello, world\n" {
					errs <- fmt.Errorf("warm GET under fault: status=%d err=%v", status, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if faulted.Load() == 0 {
			t.Fatal("fault armed but every cold request sailed through")
		}

		// Fault lifts: every path serves its correct bytes — a failed
		// fill must not have poisoned the cache.
		failpoint.Disarm(fpDiskRead.Name())
		for i := 0; i < nFiles; i++ {
			url := fmt.Sprintf("%s/chaos/f%d.txt", base, i)
			waitFor200(t, client, url, 2*time.Second)
			_, body, err := getStatus(client, url)
			if err != nil || string(body) != fmt.Sprintf("chaos file %d content\n", i) {
				t.Fatalf("post-fault GET %d: body=%q err=%v", i, body, err)
			}
		}
	})
}

// TestChaosTruncateUnderLiveMapping defines the corners a file
// truncated in place opens, for a file of several chunks, which the
// cache holds as windows of its descriptor: truncated while a fill
// holds it mapped, and truncated under windows already cached.
func TestChaosTruncateUnderLiveMapping(t *testing.T) {
	t.Run("fill", testTruncateUnderFill)
	t.Run("cached-window", testTruncateUnderCachedWindow)
}

// testTruncateUnderFill: the pages past the new EOF are not there to
// be found resident, and the helper's read of them comes up short;
// that must fail the fill — never the process. Reader A streams chunk
// 0 of a fill gated before chunk 1 (the gate sits after the chunk's
// identity check, so only the load can notice), reader B parks on
// chunk 3, the file is truncated to zero under the mapping and the gate
// released: the fill fails, A is cut short, B is cut or restarted
// against the empty file — no stale bytes either way — and the same
// server process then answers the next requests 200.
func testTruncateUnderFill(t *testing.T) {
	const (
		chunk  = 8192
		chunks = 4
	)
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
	content := pattern(chunk * chunks)
	fsPath := filepath.Join(s.cfg.DocRoot, "trunc.bin")
	mustWrite(t, s.cfg.DocRoot, "trunc.bin", string(content))

	connA := dialRaw(t, base)
	fmt.Fprintf(connA, "GET /trunc.bin HTTP/1.0\r\n\r\n")
	brA := bufio.NewReader(connA)
	if first := readThroughFirstByte(t, brA); first != content[0] {
		t.Fatalf("reader A first byte = %d, want %d", first, content[0])
	}
	connB := dialRaw(t, base)
	fmt.Fprintf(connB, "GET /trunc.bin HTTP/1.1\r\nHost: t\r\nRange: bytes=%d-\r\nConnection: close\r\n\r\n", 3*chunk)
	brB := bufio.NewReader(connB)
	waitFor(t, "range reader to join the fill", func() bool { return s.Stats().Fills.Joined == 1 })

	if err := os.Truncate(fsPath, 0); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitFor(t, "fill failure", func() bool { return s.Stats().Fills.Failed == 1 })

	restA, _ := io.ReadAll(brA) // read to the cut; any error is the cut itself
	if got := 1 + len(restA); got >= chunk*chunks {
		t.Fatalf("mid-stream reader got %d bytes of a truncated %d-byte file", got, chunk*chunks)
	}
	if respB, err := readResponse(brB, "GET"); err == nil && len(respB.body) != 0 {
		t.Fatalf("parked reader got status %d with %d body bytes of a file truncated to zero",
			respB.status, len(respB.body))
	}

	// Still the same process, still serving — including the truncated
	// path, under its new (empty) identity.
	if resp, body := get(t, base+"/hello.txt"); resp.StatusCode != 200 || string(body) != "hello, world\n" {
		t.Fatalf("after the fault: /hello.txt status=%d body=%q", resp.StatusCode, body)
	}
	if resp, body := get(t, base+"/trunc.bin"); resp.StatusCode != 200 || len(body) != 0 {
		t.Fatalf("after the fault: /trunc.bin status=%d with %d bytes, want an empty 200", resp.StatusCode, len(body))
	}
}

// testTruncateUnderCachedWindow: every window of a four-chunk file is
// cached, then the file is truncated in place to a chunk and a bit,
// which nothing revalidates. The next response's header promises the
// old length; its sendfile comes up short at the new EOF, so the
// connection is closed after exactly the bytes the file still has — a
// keep-alive request included — and counted as an error. The byte
// counters hold what was sent, the process does not panic, and it goes
// on serving.
func testTruncateUnderCachedWindow(t *testing.T) {
	const (
		chunk  = 8192
		chunks = 4
		kept   = chunk + 100
	)
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.SendfileThreshold = -1
		cfg.RevalidateInterval = -1
		cfg.Cache.ChunkBytes = chunk
	})
	content := pattern(chunk * chunks)
	mustWrite(t, s.cfg.DocRoot, "trunc.bin", string(content))
	if resp, body := get(t, base+"/trunc.bin"); resp.StatusCode != 200 || !bytes.Equal(body, content) {
		t.Fatalf("warm-up: status %d, %d body bytes", resp.StatusCode, len(body))
	}
	before := waitStats(t, s, "the warm-up to be settled", func(st Stats) bool { return st.Responses == 1 })
	if err := os.Truncate(filepath.Join(s.cfg.DocRoot, "trunc.bin"), kept); err != nil {
		t.Fatal(err)
	}

	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /trunc.bin HTTP/1.1\r\nHost: t\r\n\r\n")
	got, _ := io.ReadAll(conn) // to the close; an error is the cut itself
	head := bytes.Index(got, []byte("\r\n\r\n")) + 4
	if head < 4 || !bytes.HasPrefix(got, []byte("HTTP/1.1 200")) ||
		!bytes.Contains(got[:head], []byte(fmt.Sprintf("Content-Length: %d", chunk*chunks))) {
		t.Fatalf("response head %q", got[:max(head, 0)])
	}
	if body := got[head:]; !bytes.Equal(body, content[:kept]) {
		t.Fatalf("body: %d bytes, want the %d the truncated file still has", len(body), kept)
	}
	after := waitStats(t, s, "the cut connection to be counted", func(st Stats) bool {
		return st.Errors == before.Errors+1
	})
	if sent := after.BytesSent - before.BytesSent; sent != int64(len(got)) {
		t.Fatalf("BytesSent grew by %d, the client read %d", sent, len(got))
	}
	if sf := after.BytesSendfile - before.BytesSendfile; sendfileSupported && sf != kept {
		t.Fatalf("BytesSendfile grew by %d, want the %d bytes sendfile moved", sf, kept)
	}
	if after.BytesSent != after.BytesSendfile+after.BytesCopied {
		t.Fatalf("BytesSent %d != BytesSendfile %d + BytesCopied %d",
			after.BytesSent, after.BytesSendfile, after.BytesCopied)
	}
	if resp, body := get(t, base+"/hello.txt"); resp.StatusCode != 200 || string(body) != "hello, world\n" {
		t.Fatalf("after the cut: /hello.txt status=%d body=%q", resp.StatusCode, body)
	}
}

// TestChaosOriginDeathStaleIfError kills the origin leg (dial faults)
// under an expired entry with an explicit stale-if-error window: the
// proxy serves the stale copy byte-identically instead of a 502,
// counts it, and revalidates normally once the origin returns.
func TestChaosOriginDeathStaleIfError(t *testing.T) {
	forEachChaosMatrix(t, func(t *testing.T) {
		want := pattern(120 << 10)
		origin := newTestOrigin(t, nil)
		// max-age=0: every hit revalidates. stale-if-error=600: origin
		// failures inside ten minutes serve the stale copy.
		origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "max-age=0, stale-if-error=600"))
		clock := new(advancingClock)
		srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr), clock.install)

		if status, body, err := getStatus(client, base+"/up/data"); err != nil || status != 200 || string(body) != string(want) {
			t.Fatalf("cold GET: status=%d len=%d err=%v", status, len(body), err)
		}
		clock.advance(time.Second) // past the entry's expiry

		// Kill both legs: fresh dials and the pool's parked idle conns
		// (which skip the dial entirely and die at the head read).
		failpoint.Arm("upstream/dial", failpoint.ErrHook(errors.New("chaos: origin unreachable")))
		failpoint.Arm("upstream/read-head", failpoint.ErrHook(errors.New("chaos: origin stalled")))
		status, body, err := getStatus(client, base+"/up/data")
		if err != nil || status != 200 {
			t.Fatalf("stale GET with dead origin: status=%d err=%v", status, err)
		}
		if string(body) != string(want) {
			t.Fatalf("stale body differs: %d bytes, want %d", len(body), len(want))
		}
		if st := srv.Stats(); st.ProxyStale == 0 {
			t.Fatalf("ProxyStale = 0 after stale-if-error serve")
		}

		// Origin returns. The stale serve parked a 1 s retry holdoff on
		// the entry; after it passes, revalidation resumes and the
		// origin sees traffic again.
		failpoint.Disarm("upstream/dial")
		failpoint.Disarm("upstream/read-head")
		before := origin.fetches.Load() + origin.notMods.Load()
		clock.advance(1200 * time.Millisecond)
		if status, body, err := getStatus(client, base+"/up/data"); err != nil || status != 200 || string(body) != string(want) {
			t.Fatalf("post-recovery GET: status=%d err=%v", status, err)
		}
		if after := origin.fetches.Load() + origin.notMods.Load(); after == before {
			t.Fatalf("origin saw no traffic after recovery (%d before and after)", before)
		}
	})
}

// TestChaosOrigin5xxStaleIfError covers the other face of an origin
// failure: the origin answers, but with a 5xx. The response failpoint
// rewrites the parsed status in place (body framing still follows the
// real head, so the wire stays well-formed) and the stale copy masks
// it.
func TestChaosOrigin5xxStaleIfError(t *testing.T) {
	t.Cleanup(failpoint.DisarmAll)
	want := []byte("stale-but-served body\n")
	origin := newTestOrigin(t, nil)
	origin.setHandler(origin.cachedOrigin(func(string) []byte { return want }, "max-age=0, stale-if-error=600"))
	clock := new(advancingClock)
	srv, base, client := newProxyServer(t, testPoolFor(t, origin.addr), clock.install)

	if status, body, err := getStatus(client, base+"/up/doc"); err != nil || status != 200 || string(body) != string(want) {
		t.Fatalf("cold GET: status=%d err=%v", status, err)
	}
	clock.advance(time.Second) // past the entry's expiry

	failpoint.Arm("upstream/response", func(args ...any) error {
		*(args[0].(*int)) = 503
		return nil
	})
	status, body, err := getStatus(client, base+"/up/doc")
	if err != nil || status != 200 || string(body) != string(want) {
		t.Fatalf("GET with 5xx origin: status=%d body=%q err=%v", status, body, err)
	}
	if st := srv.Stats(); st.ProxyStale == 0 {
		t.Fatal("ProxyStale = 0 after masking an origin 5xx")
	}
}

// TestChaosSheddingUnderBacklog drives a miss storm into a helper pool
// slowed by a disk-latency failpoint with a watermark of 1: excess
// misses shed as well-formed 503 + Retry-After, warm hits stay 200
// throughout, and everything serves once the latency lifts.
func TestChaosSheddingUnderBacklog(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		t.Cleanup(failpoint.DisarmAll)
		s, base := newTestServer(t, func(c *Config) {
			c.EventLoops = 1 // one shard: the backlog concentrates
			c.ShedQueueDepth = 1
		})
		client := &http.Client{}
		t.Cleanup(client.CloseIdleConnections)

		const nFiles = 24
		for i := 0; i < nFiles; i++ {
			mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("storm/f%d.txt", i),
				fmt.Sprintf("storm file %d\n", i))
		}
		if status, _, err := getStatus(client, base+"/hello.txt"); err != nil || status != 200 {
			t.Fatalf("warmup: status=%d err=%v", status, err)
		}

		failpoint.Arm(fpDiskRead.Name(), failpoint.SleepHook(50*time.Millisecond))

		var wg sync.WaitGroup
		var shed, served atomic.Int64
		errs := make(chan error, nFiles+8)
		for i := 0; i < nFiles; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := &http.Client{}
				defer c.CloseIdleConnections()
				resp, err := c.Get(fmt.Sprintf("%s/storm/f%d.txt", base, i))
				if err != nil {
					errs <- fmt.Errorf("storm GET %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case 200:
					served.Add(1)
				case 503:
					if ra := resp.Header.Get("Retry-After"); ra == "" {
						errs <- fmt.Errorf("storm GET %d: 503 without Retry-After", i)
						return
					}
					shed.Add(1)
				default:
					errs <- fmt.Errorf("storm GET %d: status %d", i, resp.StatusCode)
				}
			}(i)
		}
		// Warm hits ride out the storm: the zero-alloc hit path never
		// consults the helper queue.
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &http.Client{}
				defer c.CloseIdleConnections()
				if status, _, err := getStatus(c, base+"/hello.txt"); err != nil || status != 200 {
					errs <- fmt.Errorf("warm GET during storm: status=%d err=%v", status, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if shed.Load() == 0 {
			t.Fatalf("no request shed (served=%d): watermark never tripped", served.Load())
		}
		if st := s.Stats(); st.ShedRequests == 0 {
			t.Fatal("ShedRequests counter = 0 with sheds observed on the wire")
		}

		// Latency lifts: every shed path serves within the recovery
		// budget.
		failpoint.Disarm(fpDiskRead.Name())
		for i := 0; i < nFiles; i++ {
			waitFor200(t, client, fmt.Sprintf("%s/storm/f%d.txt", base, i), 2*time.Second)
		}
	})
}

// TestChaosShedsByDefault: a Config that leaves ShedQueueDepth zero
// still sheds, at four queued jobs per helper. One loop's eight helpers
// are held in a disk read each; cold misses sent one at a time then
// queue their stats until the queue is one past the default watermark,
// and the next cold miss is a 503 + Retry-After.
func TestChaosShedsByDefault(t *testing.T) {
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	var reading atomic.Int64
	installDiskHook(t, func(string, int64) {
		reading.Add(1)
		<-held
	})
	s, base := newTestServer(t, func(c *Config) { c.EventLoops = 1 })
	t.Cleanup(release) // before Close: a held helper would wedge it
	helpers, watermark := s.cfg.NumHelpers, s.cfg.ShedQueueDepth
	if watermark != 4*helpers {
		t.Fatalf("default ShedQueueDepth = %d, want 4 × %d helpers", watermark, helpers)
	}
	get := func(i int) (*http.Response, error) {
		c := &http.Client{}
		defer c.CloseIdleConnections()
		return c.Get(fmt.Sprintf("%s/backlog/f%d.txt", base, i))
	}
	var wg sync.WaitGroup
	for i := 0; i <= helpers+watermark; i++ {
		mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("backlog/f%d.txt", i), "backlog\n")
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := get(i); err == nil {
				resp.Body.Close()
			}
		}()
		if i < helpers {
			waitFor(t, "a helper held in its fill", func() bool { return reading.Load() == int64(i+1) })
		} else {
			waitFor(t, "a queued stat", func() bool { return s.shards[0].helpers.depth() == i-helpers+1 })
		}
	}
	resp, err := get(helpers + watermark + 1) // no such file: a miss all the same
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("cold miss behind %d queued jobs: status %d, Retry-After %q; want a shed",
			watermark+1, resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	release()
	wg.Wait()
}

// TestChaosShedKeepsConnection holds the helpers the way
// TestChaosShedsByDefault does and asks for a cold file on a keep-alive
// connection that has just had a warm 200: the shed 503 carries
// Retry-After and no Connection: close, and the same connection
// answers the next request.
func TestChaosShedKeepsConnection(t *testing.T) {
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	var reading atomic.Int64
	installDiskHook(t, func(fsPath string, _ int64) {
		if strings.Contains(fsPath, "backlog") {
			reading.Add(1)
			<-held
		}
	})
	s, base := newTestServer(t, func(c *Config) { c.EventLoops = 1 })
	t.Cleanup(release) // before Close: a held helper would wedge it
	helpers, watermark := s.cfg.NumHelpers, s.cfg.ShedQueueDepth

	conn := dialRaw(t, base)
	br := bufio.NewReader(conn)
	ask := func(path string) *rawResponse {
		t.Helper()
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\n\r\n", path)
		resp, err := readResponse(br, "GET")
		if err != nil {
			t.Fatalf("GET %s on the kept connection: %v", path, err)
		}
		return resp
	}
	if resp := ask("/hello.txt"); resp.status != 200 {
		t.Fatalf("warm GET: status %d", resp.status)
	}

	var wg sync.WaitGroup
	for i := 0; i <= helpers+watermark; i++ {
		mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("backlog/f%d.txt", i), "backlog\n")
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{}
			defer c.CloseIdleConnections()
			if resp, err := c.Get(fmt.Sprintf("%s/backlog/f%d.txt", base, i)); err == nil {
				resp.Body.Close()
			}
		}()
		if i < helpers {
			waitFor(t, "a helper held in its fill", func() bool { return reading.Load() == int64(i+1) })
		} else {
			waitFor(t, "a queued stat", func() bool { return s.shards[0].helpers.depth() == i-helpers+1 })
		}
	}

	resp := ask("/backlog/missing.txt")
	if resp.status != 503 || resp.headers["retry-after"] == "" {
		t.Fatalf("cold miss behind %d queued jobs: status %d, Retry-After %q; want a shed",
			watermark+1, resp.status, resp.headers["retry-after"])
	}
	if strings.EqualFold(resp.headers["connection"], "close") {
		t.Fatal("shed 503 carries Connection: close; the connection should persist")
	}
	if resp := ask("/hello.txt"); resp.status != 200 {
		t.Fatalf("GET after the shed: status %d", resp.status)
	}
	release()
	wg.Wait()
}

// TestChaosAcceptExhaustion injects EMFILE at accept time: the
// acceptor burns its reserve descriptor to reset the pending
// connection instead of spinning, counts the pressure, and keeps
// accepting afterwards.
func TestChaosAcceptExhaustion(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		t.Cleanup(failpoint.DisarmAll)
		s, base := newTestServer(t, nil)
		client := &http.Client{}
		t.Cleanup(client.CloseIdleConnections)

		// Fire EMFILE on exactly one accept.
		var fired atomic.Bool
		failpoint.Arm(fpAccept.Name(), func(...any) error {
			if fired.CompareAndSwap(false, true) {
				return syscall.EMFILE
			}
			return nil
		})

		// The faulted connection dies without a response; the goroutine
		// acceptor's recovery then accept-and-closes the next pending
		// conn as its victim. Neither outcome is asserted — only that
		// the acceptor survives and service resumes.
		getStatus(client, base+"/hello.txt")
		if nc, err := net.Dial("tcp", baseAddr(base)); err == nil {
			nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			io.Copy(io.Discard, nc)
			nc.Close()
		}
		waitFor200(t, client, base+"/hello.txt", 2*time.Second)
		if st := s.Stats(); st.FdPressure == 0 {
			t.Fatal("FdPressure = 0 after an injected EMFILE")
		}
	})
}

// TestChaosConnAllocRejects injects allocation-pressure failures after
// accept: the connection is turned away and counted, and service
// resumes the moment the failpoint disarms.
func TestChaosConnAllocRejects(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		t.Cleanup(failpoint.DisarmAll)
		s, base := newTestServer(t, nil)
		client := &http.Client{}
		t.Cleanup(client.CloseIdleConnections)

		failpoint.Arm(fpConnAlloc.Name(), failpoint.ErrHook(errors.New("chaos: no memory for conn")))
		if status, _, err := getStatus(client, base+"/hello.txt"); err == nil {
			t.Fatalf("GET under alloc fault answered %d, want transport error", status)
		}
		if st := s.Stats(); st.ConnsRejected == 0 {
			t.Fatal("ConnsRejected = 0 after alloc-fault rejection")
		}
		failpoint.Disarm(fpConnAlloc.Name())
		waitFor200(t, client, base+"/hello.txt", 2*time.Second)
	})
}

// TestChaosSlowClientWriteFaults injects write-path failures into
// response transmission: in-flight responses die cleanly (no hang, no
// shard stall), and the server serves normally once disarmed.
func TestChaosSlowClientWriteFaults(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		t.Cleanup(failpoint.DisarmAll)
		_, base := newTestServer(t, nil)
		client := &http.Client{}
		t.Cleanup(client.CloseIdleConnections)

		failpoint.Arm(fpConnWrite.Name(), failpoint.ErrHook(syscall.EPIPE))
		for i := 0; i < 4; i++ {
			if status, _, err := getStatus(client, base+"/hello.txt"); err == nil && status == 200 {
				t.Fatal("write fault armed but a response went through intact")
			}
		}
		failpoint.Disarm(fpConnWrite.Name())
		waitFor200(t, client, base+"/hello.txt", 2*time.Second)
	})
}

// baseAddr strips the scheme off a test server's base URL.
func baseAddr(base string) string {
	const p = "http://"
	if len(base) > len(p) && base[:len(p)] == p {
		return base[len(p):]
	}
	return base
}

// dialKeepAlive opens a raw conn and completes one keep-alive exchange,
// leaving the connection parked idle.
func dialKeepAlive(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	br := bufio.NewReader(nc)
	getKeepAlive(t, nc, br, "/hello.txt")
	return nc, br
}

// readReject reads one raw response and asserts it is the well-formed
// admission-control reject: 503, Retry-After, empty body, then close.
func readReject(t *testing.T, nc net.Conn, context string) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(nc)
	resp, err := readResponse(br, "GET")
	if err != nil {
		t.Fatalf("%s: reading reject: %v", context, err)
	}
	if resp.status != 503 {
		t.Fatalf("%s: status %d, want 503", context, resp.status)
	}
	if resp.headers["retry-after"] == "" {
		t.Fatalf("%s: 503 without Retry-After: %v", context, resp.headers)
	}
	if len(resp.body) != 0 {
		t.Fatalf("%s: reject carried %d body bytes", context, len(resp.body))
	}
	// The server closes without draining the request, so the client may
	// see a clean EOF or a reset — either proves the close.
	if _, err := br.ReadByte(); err == nil {
		t.Fatalf("%s: conn still open after reject", context)
	}
}

// TestChaosMaxConnsRejects fills the connection budget with parked
// keep-alive conns: the next arrival reads a raw 503 + Retry-After and
// a close, the reject is counted, and — because rejection reaps parked
// idles to make room — a retry is admitted.
func TestChaosMaxConnsRejects(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		s, base := newTestServer(t, func(c *Config) { c.MaxConns = 2 })
		addr := baseAddr(base)
		dialKeepAlive(t, addr)
		dialKeepAlive(t, addr)

		over, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer over.Close()
		fmt.Fprintf(over, "GET /hello.txt HTTP/1.1\r\nHost: x\r\n\r\n")
		readReject(t, over, "over-budget conn")
		if st := s.Stats(); st.ConnsRejected == 0 {
			t.Fatal("ConnsRejected = 0 after a MaxConns reject")
		}

		// The reject triggered an idle-reap pass; the parked conns free
		// their slots and a retry gets in.
		deadline := time.Now().Add(2 * time.Second)
		for {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(nc, "GET /hello.txt HTTP/1.1\r\nHost: x\r\n\r\n")
			nc.SetReadDeadline(time.Now().Add(time.Second))
			resp, err := readResponse(bufio.NewReader(nc), "GET")
			nc.Close()
			if err == nil && resp.status == 200 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no admission after reap: status=%v err=%v", resp, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if st := s.Stats(); st.IdleReaped == 0 {
			t.Fatal("IdleReaped = 0: admission must have come from reaping")
		}
	})
}

// TestChaosMaxConnsPerIP caps one address at a single connection: the
// second conn from the same IP reads the raw 503 reject while the
// first keeps serving, and closing the first admits a successor.
func TestChaosMaxConnsPerIP(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		s, base := newTestServer(t, func(c *Config) { c.MaxConnsPerIP = 1 })
		addr := baseAddr(base)
		first, br := dialKeepAlive(t, addr)

		over, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer over.Close()
		fmt.Fprintf(over, "GET /hello.txt HTTP/1.1\r\nHost: x\r\n\r\n")
		readReject(t, over, "over-per-IP conn")

		// The established conn is unharmed.
		if resp := getKeepAlive(t, first, br, "/hello.txt"); resp.status != 200 {
			t.Fatalf("first conn after reject: status %d", resp.status)
		}
		if st := s.Stats(); st.ConnsRejected == 0 {
			t.Fatal("ConnsRejected = 0 after a per-IP reject")
		}

		// Releasing the slot admits the next conn from the same IP.
		first.Close()
		deadline := time.Now().Add(2 * time.Second)
		for {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(nc, "GET /hello.txt HTTP/1.1\r\nHost: x\r\n\r\n")
			nc.SetReadDeadline(time.Now().Add(time.Second))
			resp, err := readResponse(bufio.NewReader(nc), "GET")
			nc.Close()
			if err == nil && resp.status == 200 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("slot never released: %v err=%v", resp, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// closeStub is a net.Conn whose Close counts, or panics.
type closeStub struct {
	net.Conn
	closes atomic.Int32
	boom   bool
}

func (s *closeStub) Close() error {
	if s.boom {
		panic("unrelated failure")
	}
	s.closes.Add(1)
	return nil
}

// TestRecoverClosedChannelNarrowed is named for the recover-based guard
// conn.abort once had; the guard is a sync.Once now, and the two
// properties it was held to still are: closing done twice — from
// racing goroutines — is harmless, and nothing on the close path
// swallows a panic.
func TestRecoverClosedChannelNarrowed(t *testing.T) {
	t.Run("double-close-swallowed", func(t *testing.T) {
		stub := &closeStub{}
		c := &conn{nc: stub, done: make(chan struct{})}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.abort()
				c.closeDone()
			}()
		}
		wg.Wait()
		select {
		case <-c.done:
		default:
			t.Fatal("done still open after abort")
		}
		if n := stub.closes.Load(); n != 8 {
			t.Fatalf("socket closed %d times, want 8 (once per abort)", n)
		}
	})
	t.Run("other-panics-propagate", func(t *testing.T) {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("unrelated panic was swallowed")
			}
		}()
		c := &conn{nc: &closeStub{boom: true}, done: make(chan struct{})}
		c.abort()
	})
}
