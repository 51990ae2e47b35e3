package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
)

// The one miss path: a chunk that is not resident is only ever brought
// in by the single-flight fill of its file. These tests drive the two
// corners where a walk cannot take its chunk from the fill it met — a
// fill of another generation in flight, and a fill that retired before
// the walk took its chunk — and hold them to a fill too.

// gateOnce returns a gate that holds the first caller of wait until
// open is called (idempotent; registered as a cleanup, so a failing
// test cannot wedge the server's Close on a held helper) and lets every
// later caller through. entered is closed once the first caller waits.
func gateOnce(t *testing.T) (wait func(), entered <-chan struct{}, open func()) {
	gate, in := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	wait = func() {
		if first.CompareAndSwap(false, true) {
			close(in)
			<-gate
		}
	}
	open = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	return wait, in, open
}

// TestMissPathWaitsOutOtherGeneration: a generation-1 fill is held by
// the disk hook; the file is replaced by rename and a request arrives
// past the revalidation interval. Its walk meets the generation-1 fill
// still in flight. It must neither join it (Joined stays 0) nor read
// around it: it parks until that fill ends — failed, as the
// revalidation doomed it — then joins a generation-2 fill and answers
// with new bytes from the first to the last. Every helper job is a stat
// or a fill: two stats, two fills.
func TestMissPathWaitsOutOtherGeneration(t *testing.T) {
	forEachChunkPath(t, testMissPathWaitsOutOtherGeneration)
}

func testMissPathWaitsOutOtherGeneration(t *testing.T) {
	const chunk, chunks = 8192, 3
	hold, _, release := gateOnce(t)
	var reads atomic.Int32
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "gen.bin") {
			reads.Add(1)
			hold()
		}
	})
	// A clock the test advances: revalidation happens exactly when the
	// test says so, and never again.
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 1
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
		cfg.RevalidateInterval = time.Second
		cfg.Clock = func() time.Time { return time.Unix(0, now.Load()) }
	})
	t.Cleanup(release) // before Close: a held helper would wedge it

	fsPath := filepath.Join(root, "gen.bin")
	oldContent := pattern(chunk * chunks)
	newContent := bytes.ToUpper(bytes.Repeat([]byte("second-generation-"), chunk*chunks/18+1))[:chunk*chunks]
	oldTime := time.Now().Add(-10 * time.Second)
	if err := os.WriteFile(fsPath, oldContent, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(fsPath, oldTime, oldTime); err != nil {
		t.Fatal(err)
	}

	// Request A starts the generation-1 fill; the hook holds its first
	// load, so nothing of A's response is on the wire.
	connA := dialRaw(t, base)
	fmt.Fprintf(connA, "GET /gen.bin HTTP/1.0\r\n\r\n")
	waitFor(t, "the generation-1 fill", func() bool { return s.Stats().Fills.Started == 1 })

	// Replace the file by rename and let the cached identity go stale.
	tmp := filepath.Join(root, "gen.tmp")
	if err := os.WriteFile(tmp, newContent, 0o644); err != nil {
		t.Fatal(err)
	}
	newTime := oldTime.Add(5 * time.Second)
	if err := os.Chtimes(tmp, newTime, newTime); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, fsPath); err != nil {
		t.Fatal(err)
	}
	now.Add(int64(2 * time.Second))

	// Request B revalidates, adopts generation 2 and walks into the
	// generation-1 fill. Its chunk lookup is the loop's second miss;
	// the shard snapshot runs on the loop, so once it shows two misses
	// B's walk has finished with that fill for this turn.
	connB := dialRaw(t, base)
	fmt.Fprintf(connB, "GET /gen.bin HTTP/1.0\r\n\r\n")
	waitFor(t, "request B's walk", func() bool { return s.ShardStats()[0].MapCache.Misses == 2 })
	if f := s.Stats().Fills; f.Started != 1 || f.Joined != 0 {
		t.Fatalf("fill stats while generation 1 is held = %+v, want one fill and no join", f)
	}

	release()
	for name, conn := range map[string]io.Reader{"A": connA, "B": connB} {
		resp, err := readResponse(bufio.NewReader(conn), "GET")
		if err != nil {
			t.Fatalf("request %s: %v", name, err)
		}
		if resp.status != 200 || !bytes.Equal(resp.body, newContent) {
			t.Fatalf("request %s: status %d, %d body bytes; want the new generation whole",
				name, resp.status, len(resp.body))
		}
	}

	waitFor(t, "the generation-2 fill", func() bool { return s.Stats().Fills.Completed == 1 })
	st := s.Stats()
	if f := st.Fills; f.Started != 2 || f.Failed != 1 || f.Completed != 1 {
		t.Fatalf("fill stats = %+v, want generation 1 failed and one generation-2 fill", f)
	}
	if st.HelperJobs != 2+st.Fills.Started {
		t.Fatalf("helper jobs = %d, want 2 stats + %d fills", st.HelperJobs, st.Fills.Started)
	}
	if got := reads.Load(); got != 1+chunks {
		t.Fatalf("disk loads = %d, want %d: the held one, then one pass", got, 1+chunks)
	}
}

// TestMissPathWaitsOutCompletedOtherGeneration: the other generation's
// fill finishes instead of failing. Two loops see one file under two
// identities and nothing revalidates, so nothing dooms the older fill:
// request A (loop a) asks for the last chunk of generation 1, three
// chunks long, and starts its fill, held by the disk hook; the file is
// replaced by rename with a one-chunk generation 2; request B (loop b)
// stats it fresh and parks on the generation-1 fill's last chunk, whose
// producer still reads the old inode and completes. The test parks on
// that chunk behind B and, from its wake, drains loop b: B's wake runs
// while the final publish is still waking its subscribers, so B meets a
// finished fill that still pins its chunks. B must take nothing from
// it: it joins a generation-2 fill, and once both responses are read no
// chunk stays pinned — the one-byte budget leaves the shared tier
// empty. (Generation 2 never publishes under chunk 2's key, so nothing
// replaces a generation-1 chunk B might have kept.)
func TestMissPathWaitsOutCompletedOtherGeneration(t *testing.T) {
	forEachChunkPath(t, testMissPathWaitsOutCompletedOtherGeneration)
}

func testMissPathWaitsOutCompletedOtherGeneration(t *testing.T) {
	const chunk, chunks = 8192, 3
	hold, _, release := gateOnce(t)
	var reads atomic.Int32
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "gen.bin") {
			reads.Add(1)
			hold()
		}
	})
	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 2
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
		cfg.Cache.MapBytes = 1 // a chunk leaves the cache with its last pin
	})
	t.Cleanup(release) // before Close: a held helper would wedge it

	fsPath := filepath.Join(root, "gen.bin")
	oldContent := pattern(chunk * chunks)
	newContent := bytes.ToUpper(bytes.Repeat([]byte("second-generation-"), chunk/18+1))[:chunk]
	oldTime := time.Now().Add(-10 * time.Second)
	if err := os.WriteFile(fsPath, oldContent, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(fsPath, oldTime, oldTime); err != nil {
		t.Fatal(err)
	}

	// Accepts alternate between the loops: A's loop is the one that took
	// the first connection, and B must land on the other.
	connA := dialRaw(t, base)
	waitFor(t, "A's accept", func() bool { return s.Stats().Accepted == 1 })
	a := 0
	if s.ShardStats()[1].Accepted == 1 {
		a = 1
	}
	b := 1 - a
	const last = (chunks - 1) * chunk
	fmt.Fprintf(connA, "GET /gen.bin HTTP/1.0\r\nRange: bytes=%d-\r\n\r\n", last)
	waitFor(t, "the generation-1 fill", func() bool { return s.Stats().Fills.Started == 1 })

	tmp := filepath.Join(root, "gen.tmp")
	if err := os.WriteFile(tmp, newContent, 0o644); err != nil {
		t.Fatal(err)
	}
	newTime := oldTime.Add(5 * time.Second)
	if err := os.Chtimes(tmp, newTime, newTime); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, fsPath); err != nil {
		t.Fatal(err)
	}

	connB := dialRaw(t, base)
	waitFor(t, "B's accept", func() bool { return s.Stats().Accepted == 2 })
	if s.ShardStats()[b].Accepted != 1 {
		t.Fatal("request B landed on request A's loop")
	}
	fmt.Fprintf(connB, "GET /gen.bin HTTP/1.0\r\n\r\n")
	// B's chunk lookup is loop b's first miss; the snapshot runs on
	// the loop, so once it shows the miss B is parked.
	waitFor(t, "request B's walk", func() bool { return s.ShardStats()[b].MapCache.Misses == 1 })

	var gen1 *cache.Fill
	s.shards[a].call(func() {
		gen1, _ = s.shards[a].view.JoinFill(fsPath, chunk*chunks, oldTime.Unix())
	})
	if gen1.ModTime() != oldTime.Unix() || s.Stats().Fills.Started != 1 {
		t.Fatal("the test's join did not find the generation-1 fill")
	}
	drained := make(chan struct{})
	if _, pending, _ := gen1.ChunkAt(chunks-1, func() {
		s.shards[b].call(func() {}) // B's wake, posted just before, runs first
		close(drained)
	}); !pending {
		t.Fatal("the generation-1 fill published before it was released")
	}

	release()
	<-drained
	for _, tc := range []struct {
		name   string
		conn   net.Conn
		status int
		want   []byte
	}{{"A", connA, 206, oldContent[last:]}, {"B", connB, 200, newContent}} {
		resp, err := readResponse(bufio.NewReader(tc.conn), "GET")
		if err != nil {
			t.Fatalf("request %s: %v", tc.name, err)
		}
		if resp.status != tc.status || !bytes.Equal(resp.body, tc.want) {
			t.Fatalf("request %s: status %d, %d body bytes; want %d and its own generation's bytes",
				tc.name, resp.status, len(resp.body), tc.status)
		}
	}

	waitFor(t, "every chunk unpinned", func() bool { return s.store.SharedStats().UsedBytes == 0 })
	if f := s.Stats().Fills; f.Started != 2 || f.Completed != 2 || f.Failed != 0 || f.Joined != 1 {
		t.Fatalf("fill stats = %+v, want one fill per generation (and the test's join)", f)
	}
	if got := reads.Load(); got != chunks+1 {
		t.Fatalf("disk loads = %d, want %d: one pass per generation", got, chunks+1)
	}
}

// TestMissPathRefillsAfterRetiredFill: a walk sends chunk 0 of a cold
// file and joins the fill for chunk 1; while the response's first item
// is held at the socket, the fill finishes and the one-byte budget
// evicts chunk 1. When the walk comes back, the fill it joined is over
// and the chunk is gone, so it joins again: a second fill brings chunk
// 1 back and the body is byte-exact.
func TestMissPathRefillsAfterRetiredFill(t *testing.T) {
	forEachChunkPath(t, testMissPathRefillsAfterRetiredFill)
}

func testMissPathRefillsAfterRetiredFill(t *testing.T) {
	const chunk = 8192
	holdLoad, _, releaseLoad := gateOnce(t)
	var reads atomic.Int32
	installDiskHook(t, func(fsPath string, off int64) {
		if strings.HasSuffix(fsPath, "retired.bin") {
			reads.Add(1)
			if off == chunk {
				holdLoad() // the first fill's second chunk
			}
		}
	})
	holdWrite, writing, releaseWrite := gateOnce(t)
	failpoint.Arm(fpConnWrite.Name(), func(...any) error {
		holdWrite()
		return nil
	})
	t.Cleanup(func() { failpoint.Disarm(fpConnWrite.Name()) })

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 1
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
		cfg.Cache.MapBytes = 1 // a chunk leaves the cache with its last pin
	})
	t.Cleanup(releaseLoad)
	t.Cleanup(releaseWrite)
	want := pattern(2 * chunk)
	mustWrite(t, root, "retired.bin", string(want))

	conn := dialRaw(t, base)
	fmt.Fprintf(conn, "GET /retired.bin HTTP/1.0\r\n\r\n")
	// The walk's first item — header and chunk 0 — is at the socket, and
	// the walk has joined the fill for chunk 1.
	<-writing
	releaseLoad()
	waitFor(t, "the first fill to finish", func() bool { return s.Stats().Fills.Completed == 1 })
	releaseWrite()

	resp, err := readResponse(bufio.NewReader(conn), "GET")
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != 200 || !bytes.Equal(resp.body, want) {
		t.Fatalf("status %d, %d body bytes; want %d byte-exact", resp.status, len(resp.body), len(want))
	}
	if f := s.Stats().Fills; f.Started != 2 || f.Completed != 2 || f.Failed != 0 {
		t.Fatalf("fill stats = %+v, want two completed fills", f)
	}
	if got := reads.Load(); got != 4 {
		t.Fatalf("disk loads = %d, want 4: two passes over two chunks", got)
	}
}
