package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoomedFillWakesParkedRangeReader is the regression test for the
// doomed-fill waiter audit: a subscriber parked on a chunk BEYOND the
// fill's publish watermark (a range reader whose window starts past
// the producer's position) must be woken when the fill is invalidated
// mid-stream, receive ErrFillStale, and — having sent nothing yet —
// restart cleanly against the file's new identity. The reader that was
// already streaming the doomed generation cannot be saved (its stated
// Content-Length is unmeetable) and must see its connection cut.
//
// Sequence: reader A starts the fill and streams chunk 0 while the
// disk pass is gated before chunk 1; reader B joins with a range
// window starting at chunk 3 and parks there, past anything
// published; the file is then rewritten in place (same size, new
// mtime) and the gate released. The producer's next identity check
// fails the fill with ErrFillStale, which must wake BOTH parked
// walks: A dies mid-body, B restarts and serves the new bytes — from
// exactly one replacement fill, however A's and B's wakes interleave.
func TestDoomedFillWakesParkedRangeReader(t *testing.T) {
	forEachChunkPath(t, testDoomedFillWakesParkedRangeReader)
}

func testDoomedFillWakesParkedRangeReader(t *testing.T) {
	const (
		chunk  = 8192
		chunks = 4
	)
	gate := make(chan struct{})
	installDiskHook(t, func(fsPath string, off int64) {
		// Chunk 0 publishes freely; the pass stalls before chunk 1.
		// After close(gate) — including the restarted walk's fresh
		// fill — reads flow unimpeded.
		if strings.HasSuffix(fsPath, "stale.bin") && off == chunk {
			<-gate
		}
	})

	var root string
	s, base := newTestServer(t, func(cfg *Config) {
		root = cfg.DocRoot
		cfg.EventLoops = 1 // both connections share one shard
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = chunk
	})
	oldContent := pattern(chunk * chunks)
	newContent := bytes.ToUpper(bytes.Repeat([]byte("fresh-generation-"), chunk*chunks/17+1))[:chunk*chunks]
	fsPath := filepath.Join(root, "stale.bin")
	if err := os.WriteFile(fsPath, oldContent, 0o644); err != nil {
		t.Fatal(err)
	}
	// Identity is mtime in unix seconds: pin both generations to
	// explicit, distinct timestamps so the rewrite always registers.
	oldTime := time.Now().Add(-10 * time.Second)
	if err := os.Chtimes(fsPath, oldTime, oldTime); err != nil {
		t.Fatal(err)
	}

	// Reader A starts the fill and streams chunk 0 of the old bytes.
	connA := dialRaw(t, base)
	fmt.Fprintf(connA, "GET /stale.bin HTTP/1.0\r\n\r\n")
	brA := bufio.NewReader(connA)
	firstA := readThroughFirstByte(t, brA)
	if firstA != oldContent[0] {
		t.Fatalf("reader A first byte = %d, want %d", firstA, oldContent[0])
	}
	waitFor(t, "fill start", func() bool { return s.Stats().Fills.Started == 1 })

	// Reader B joins the same fill with a window starting at chunk 3 —
	// beyond the watermark (the producer is gated before chunk 1), so
	// its walk parks on a chunk no publish will reach.
	connB := dialRaw(t, base)
	fmt.Fprintf(connB, "GET /stale.bin HTTP/1.1\r\nHost: t\r\nRange: bytes=%d-\r\nConnection: close\r\n\r\n",
		3*chunk)
	brB := bufio.NewReader(connB)
	waitFor(t, "range reader to join the fill", func() bool {
		return s.Stats().Fills.Joined == 1
	})

	// Swap the file's generation under the stalled fill: same size
	// (the promised windows stay meetable by the new identity), new
	// bytes, new mtime.
	if err := os.WriteFile(fsPath, newContent, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(fsPath, oldTime.Add(5*time.Second), oldTime.Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}

	// Release the pass. The producer's next per-chunk identity check
	// sees the new mtime and fails the fill with ErrFillStale.
	close(gate)
	waitFor(t, "fill failure", func() bool { return s.Stats().Fills.Failed >= 1 })

	// Reader B was parked past the watermark with nothing on the wire:
	// the failure must wake it and the walk must restart against the
	// fresh identity, serving a complete 206 of the NEW bytes.
	respB, err := readResponse(brB, "GET")
	if err != nil {
		t.Fatalf("range reader after doomed fill: %v", err)
	}
	if respB.status != 206 {
		t.Fatalf("range reader status = %d, want 206", respB.status)
	}
	if want := newContent[3*chunk:]; !bytes.Equal(respB.body, want) {
		t.Fatalf("range reader body = %d bytes (stale or corrupt), want %d new-generation bytes",
			len(respB.body), len(want))
	}

	// Reader A had old-generation bytes on the wire when the fill
	// died: its Content-Length is unmeetable and the connection must
	// be cut short, never completed with mixed generations.
	restA, _ := io.ReadAll(brA) // read to the cut; any error is the cut itself
	if got := 1 + len(restA); got >= chunk*chunks {
		t.Fatalf("mid-stream reader got %d bytes of a doomed %d-byte response", got, chunk*chunks)
	}

	// Two stale waiters, one replacement fill: whichever of A and B
	// handled the failure second invalidated the OLD generation only,
	// so the fill B's restart started ran to completion — it was not
	// doomed into a third disk pass.
	f := s.Stats().Fills
	if f.Started != 2 || f.Failed != 1 || f.Completed != 1 {
		t.Fatalf("fill stats = %+v, want Started=2 Failed=1 Completed=1", f)
	}
}

// TestFillIdentityAfterTouch pins the order "take the bytes, then check
// the identity, then publish". The disk-read hook runs before a chunk
// is loaded; here it rewrites the file in place — same size, new bytes,
// new mtime — while it holds the helper. A producer that checked
// identity first would now load new-generation bytes and publish them
// under the old tag. Checked after the load, the fill fails stale, the
// request (nothing sent yet) restarts against the new identity, and
// the body is new-generation from the first byte to the last — on the
// mapped path, where the rewrite shows through the live mapping, and
// on the read path alike.
func TestFillIdentityAfterTouch(t *testing.T) {
	forEachChunkPath(t, func(t *testing.T) {
		for _, coalesce := range []bool{true, false} {
			t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
				testFillIdentityAfterTouch(t, coalesce)
			})
		}
	})
}

func testFillIdentityAfterTouch(t *testing.T, coalesce bool) {
	const size = 3 * 8192
	oldContent := pattern(size)
	newContent := bytes.ToUpper(bytes.Repeat([]byte("fresh-generation-"), size/17+1))[:size]
	oldTime := time.Now().Add(-10 * time.Second)

	var fsPath string
	var rewritten atomic.Bool
	installDiskHook(t, func(path string, off int64) {
		if path != fsPath || !rewritten.CompareAndSwap(false, true) {
			return
		}
		if err := os.WriteFile(path, newContent, 0o644); err != nil {
			t.Error(err)
		}
		if err := os.Chtimes(path, oldTime.Add(5*time.Second), oldTime.Add(5*time.Second)); err != nil {
			t.Error(err)
		}
	})
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.SendfileThreshold = -1
		cfg.Cache.ChunkBytes = 8192
		cfg.Cache.DisableCoalescing = !coalesce
		fsPath = filepath.Join(cfg.DocRoot, "rewrite.bin")
	})
	if err := os.WriteFile(fsPath, oldContent, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(fsPath, oldTime, oldTime); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, base+"/rewrite.bin")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, newContent) {
		i := 0
		for i < len(body) && i < size && body[i] == newContent[i] {
			i++
		}
		t.Fatalf("body is not the new generation: %d bytes, first difference at %d", len(body), i)
	}
	if coalesce {
		if f := s.Stats().Fills; f.Started != 2 || f.Failed != 1 || f.Completed != 1 {
			t.Fatalf("fill stats = %+v, want the stale fill failed and one replacement completed", f)
		}
	}
}
