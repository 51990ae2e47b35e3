//go:build linux

package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// countResident returns how many of b's pages are mapped into this
// process (bit 63 of their /proc/self/pagemap entries). mincore would
// not do: it reports page-cache residency, which a zap leaves alone.
func countResident(t testing.TB, b []byte) int {
	t.Helper()
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Skipf("no pagemap: %v", err)
	}
	defer f.Close()
	pg := os.Getpagesize()
	first := uintptr(unsafe.Pointer(&b[0])) / uintptr(pg)
	buf := make([]byte, 8*((len(b)+pg-1)/pg))
	if _, err := f.ReadAt(buf, int64(first)*8); err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:])>>63 == 1 {
			n++
		}
	}
	return n
}

// drainZaps flushes stats' queue whether or not it is due.
func drainZaps(stats *MapStats) {
	stats.zaps.mu.Lock()
	stats.flushZapsLocked()
	stats.zaps.mu.Unlock()
}

// queuedSpans returns how many spans stats' queue holds, and how many
// of them belong to root.
func queuedSpans(stats *MapStats, root *MmapRef) (all, of int) {
	stats.zaps.mu.Lock()
	defer stats.zaps.mu.Unlock()
	for _, z := range stats.zaps.spans {
		if z.root == root {
			of++
		}
	}
	return len(stats.zaps.spans), of
}

// forceZapEach switches the process to one madvise per span for the
// rest of the test.
func forceZapEach(t testing.TB) {
	was := zapEach.Load()
	zapEach.Store(true)
	t.Cleanup(func() { zapEach.Store(was) })
}

// skipUnlessBatching skips a test once the kernel has refused a
// process_madvise (or pidfd_open failed).
func skipUnlessBatching(t testing.TB) {
	if zapEach.Load() || zapPidfd() < 0 {
		t.Skip("this kernel does not take MADV_DONTNEED through process_madvise")
	}
}

// zapTestStore is a one-segment store whose budget holds the given
// number of chunks, each four pages long; it returns the chunk size.
func zapTestStore(chunks int) (*ShardedStore, int) {
	chunk := 4 * os.Getpagesize()
	st := testStore(1, int64(chunks*chunk), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments = int64(chunk), 1
	})
	return st, chunk
}

// TestZapQueueBatches streams files through a two-chunk budget. Batched,
// the queue leaves in one call per 16 spans; forced onto the fallback,
// every span is its own madvise. Either way every evicted page is gone
// once the queue is drained.
func TestZapQueueBatches(t *testing.T) {
	for _, mode := range []string{"batch", "each"} {
		t.Run("zap="+mode, func(t *testing.T) {
			if mode == "each" {
				forceZapEach(t)
			} else {
				skipUnlessBatching(t)
			}
			st, chunk := zapTestStore(2)
			v := st.View(0)
			stats := new(MapStats)
			const files = 40
			size := 3 * chunk
			maps := make([]*MmapRef, files)
			for i := range maps {
				ref, _ := mappedFileIn(t, size, stats)
				defer ref.Release()
				publishFile(t, st, v, ref, fmt.Sprintf("/f%d", i), size)
				maps[i], _ = ref.Map(int64(size))
			}
			if mode == "batch" {
				skipUnlessBatching(t) // the first flush probed the kernel
			}
			drainZaps(stats)
			spans, calls := stats.ZapSpans.Load(), stats.ZapCalls.Load()
			if spans < 2*zapQueueSpans {
				t.Fatalf("%d spans zapped streaming %d files through a two-chunk budget", spans, files)
			}
			if mode == "batch" && calls > (spans+zapQueueSpans-1)/zapQueueSpans+1 {
				t.Fatalf("%d zap calls for %d spans, want at most one per %d", calls, spans, zapQueueSpans)
			}
			if mode == "each" && calls != spans {
				t.Fatalf("%d zap calls for %d spans on the fallback, want one each", calls, spans)
			}
			// Only the last file can still hold chunks in two chunks of budget.
			for i, m := range maps[:files-1] {
				if n := countResident(t, m.Bytes()); n != 0 {
					t.Fatalf("file %d: %d pages still mapped in after its chunks were evicted and zapped", i, n)
				}
			}
		})
	}
}

// TestZapQueueRefillKeepsPages: a file evicted and refilled before the
// queue flushed keeps the pages of its live chunks when the flush comes
// — Touch cancelled the stale span — and they read back its bytes.
func TestZapQueueRefillKeepsPages(t *testing.T) {
	skipUnlessBatching(t)
	st, chunk := zapTestStore(4)
	v := st.View(0)
	stats := new(MapStats)
	size := 4 * chunk
	refF, contentF := mappedFileIn(t, size, stats)
	refX, _ := mappedFileIn(t, size, stats)
	defer refF.Release()
	defer refX.Release()
	mapF, _ := refF.Map(int64(size))

	publishFile(t, st, v, refF, "/f", size)
	publishFile(t, st, v, refX, "/x", size) // evicts F: its span is queued
	if _, of := queuedSpans(stats, mapF); of == 0 || stats.ZapCalls.Load() != 0 {
		t.Fatalf("F's eviction: %d spans of F queued, %d zap calls; want queued and not flushed", of, stats.ZapCalls.Load())
	}
	publishFile(t, st, v, refF, "/f", size) // refill: F's spans cancelled, X's queued
	if _, of := queuedSpans(stats, mapF); of != 0 {
		t.Fatalf("%d spans of F still queued after its refill touched it", of)
	}
	// Hold F's chunks, as a response would, and push single-chunk
	// evictions through the rest of the queue until it flushes.
	for i := 0; i < 4; i++ {
		c := v.Lookup(ChunkKey{Path: "/f", Index: i}, 1)
		if c == nil {
			t.Fatalf("F's chunk %d not resident after its refill", i)
		}
		defer v.Release(c)
	}
	for i := 0; stats.ZapCalls.Load() == 0; i++ {
		if i == 2*zapQueueSpans {
			t.Fatalf("no flush after %d evictions", i)
		}
		ref, _ := mappedFileIn(t, chunk, stats)
		defer ref.Release()
		publishFile(t, st, v, ref, fmt.Sprintf("/g%d", i), chunk)
	}
	if n, all := countResident(t, mapF.Bytes()), size/os.Getpagesize(); n != all {
		t.Fatalf("%d of F's %d live pages mapped in after the flush, want all", n, all)
	}
	if !bytes.Equal(mapF.Bytes(), contentF) {
		t.Fatal("F's live pages read back different bytes")
	}
}

// TestZapQueueUnmap: a root whose last view goes while its spans are
// queued unmaps at once, its spans leave the queue with it, and the
// next flush — naming only live ranges — is one call with a full count.
func TestZapQueueUnmap(t *testing.T) {
	skipUnlessBatching(t)
	st, chunk := zapTestStore(2)
	v := st.View(0)
	stats := new(MapStats)
	size := 2 * chunk
	var refs [3]*FileRef
	var maps [3]*MmapRef
	for i := range refs {
		refs[i], _ = mappedFileIn(t, size, stats)
		// Every file is mapped before any is unmapped, so no mapping
		// can reuse the address range the test unmaps.
		maps[i], _ = refs[i].Map(int64(size))
	}
	defer refs[1].Release()
	defer refs[2].Release()
	publishFile(t, st, v, refs[0], "/a", size)
	publishFile(t, st, v, refs[1], "/b", size) // evicts A
	publishFile(t, st, v, refs[2], "/c", size) // evicts B
	all, ofA := queuedSpans(stats, maps[0])
	if ofA == 0 || all == ofA || stats.ZapCalls.Load() != 0 {
		t.Fatalf("queue holds %d spans, %d of A, after %d calls; want A's and B's, unflushed", all, ofA, stats.ZapCalls.Load())
	}
	refs[0].Release() // A's last reference: no chunk view holds it
	if got := stats.Unmaps.Load(); got != 1 {
		t.Fatalf("unmaps = %d after A's last reference went, want 1 at once", got)
	}
	if _, ofA := queuedSpans(stats, maps[0]); ofA != 0 {
		t.Fatalf("%d spans of the unmapped A still queued", ofA)
	}
	drainZaps(stats)
	if got := stats.ZapCalls.Load(); got != 1 {
		t.Fatalf("the flush made %d calls, want 1 (a short count re-zaps span by span)", got)
	}
	if n := countResident(t, maps[1].Bytes()); n != 0 {
		t.Fatalf("%d of B's pages mapped in after the flush", n)
	}
}

// TestZapQueueConcurrent: loops on four views stream the same files
// under their own paths through one small budget, so evictions queue
// spans of a mapping while another loop's fill touches (and cancels)
// views of it and flushes run on whichever goroutine filled the queue.
// Every chunk read back holds its file's bytes.
func TestZapQueueConcurrent(t *testing.T) {
	const views, files, rounds = 4, 6, 40
	pg := os.Getpagesize()
	chunk := 4 * pg
	size := 3 * chunk
	st := testStore(views, int64(4*chunk), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments = int64(chunk), 2
	})
	stats := new(MapStats)
	refs := make([]*FileRef, files)
	contents := make([][]byte, files)
	for i := range refs {
		refs[i], contents[i] = mappedFileIn(t, size, stats)
		defer refs[i].Release()
	}
	var wg sync.WaitGroup
	for g := 0; g < views; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := st.View(g)
			for r := 0; r < rounds; r++ {
				k := (r*5 + g) % files
				path := fmt.Sprintf("/v%d/f%d", g, k)
				m, err := refs[k].Map(int64(size))
				if err != nil {
					t.Error(err)
					return
				}
				if fill, started := v.JoinFill(path, int64(size), 1); started {
					for i := 0; i < fill.NumChunks(); i++ {
						sub := m.Slice(fill.ChunkRange(i))
						if err := sub.Touch(); err != nil {
							sub.Release()
							fill.Fail(err)
							t.Error(err)
							return
						}
						fill.PublishMapped(sub)
					}
				}
				for i := 0; i < st.NumChunks(int64(size)); i++ {
					if c := v.Lookup(ChunkKey{Path: path, Index: i}, 1); c != nil {
						off, n := st.ChunkRange(int64(size), i)
						if !bytes.Equal(c.Data, contents[k][off:off+n]) {
							t.Errorf("%s chunk %d read back other bytes", path, i)
						}
						v.Release(c)
					}
				}
			}
		}()
	}
	wg.Wait()
	spans, calls := stats.ZapSpans.Load(), stats.ZapCalls.Load()
	if spans == 0 {
		t.Fatal("no span zapped under eviction pressure")
	}
	t.Logf("%d spans zapped in %d calls", spans, calls)
}

// BenchmarkZap measures what dropping one 76 KiB span of evicted pages
// (19 pages, cold_zipf's mean eviction run) costs: one madvise per
// span, against one process_madvise over a queue of 1, 4, 16 or 64
// spans, each span in a file of its own. ns/span times the zap alone,
// not the touch that faults the pages back in between rounds.
func BenchmarkZap(b *testing.B) {
	const spans = 64
	pg := os.Getpagesize()
	span := 19 * pg
	stats := new(MapStats)
	maps := make([]*MmapRef, spans)
	for i := range maps {
		ref, _ := mappedFileIn(b, span, stats)
		b.Cleanup(ref.Release)
		var err error
		if maps[i], err = ref.Map(int64(span)); err != nil {
			b.Fatal(err)
		}
	}
	touch := func(n int) {
		for _, m := range maps[:n] {
			if err := m.Touch(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("each", func(b *testing.B) {
		var zapping time.Duration
		for i := 0; i < b.N; i++ {
			m := maps[i%spans]
			if err := m.Touch(); err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			zapRegion(m.raw)
			zapping += time.Since(start)
		}
		b.ReportMetric(float64(zapping.Nanoseconds())/float64(b.N), "ns/span")
	})
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			skipUnlessBatching(b)
			var zapping time.Duration
			for i := 0; i < b.N; i++ {
				touch(n)
				start := time.Now()
				for _, m := range maps[:n] {
					stats.queueZap(m, 0, len(m.raw))
				}
				drainZaps(stats)
				zapping += time.Since(start)
			}
			skipUnlessBatching(b)
			b.ReportMetric(float64(zapping.Nanoseconds())/float64(b.N*n), "ns/span")
		})
	}
}
