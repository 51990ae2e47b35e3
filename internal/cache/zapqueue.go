package cache

import (
	"sync"
	"sync/atomic"
)

// Caps of a server's zap queue: it is flushed when it holds this many
// spans or this many bytes, whichever comes first.
const (
	// zapQueueSpans: BenchmarkZap on a 2-vCPU x86-64 VM (Xeon, Linux
	// 6.18) puts one madvise of a 76 KiB span (19 pages, cold_zipf's
	// mean eviction run) at 4.2-4.6 us, and a process_madvise flush at
	// 1.46 us per span for 4 spans, 1.12-1.24 us for 16 and 1.04-1.09
	// us for 64: past 16 the base cost is spent and what is left is
	// the per-page work.
	zapQueueSpans = 16
	// zapQueueBytes bounds the evicted pages the queue keeps resident:
	// 1 MiB is +1.2 % on cold_zipf's 84 MiB server RSS, and caps a
	// batch of whole-file spans (cold_zipf files reach 160 KiB) at a
	// handful of files.
	zapQueueBytes = 1 << 20
)

// zapEach, once set, makes every zap one madvise on the spot: the
// kernel has no pidfd_open, or refused MADV_DONTNEED through
// process_madvise on our own process (Linux < 6.13). Set for the
// process's lifetime; tests set it to force the fallback.
var zapEach atomic.Bool

// zapSpan is a page-aligned range [lo, hi) of a root's mapping whose
// pages an eviction gave up. It holds no reference: the root's final
// Release removes its spans before the munmap.
type zapSpan struct {
	root   *MmapRef
	lo, hi int
}

// bytes returns the span's bytes within its root's mapping.
func (s zapSpan) bytes() []byte { return s.root.raw[s.lo:s.hi] }

// zapQueue holds the evicted spans of one server's mappings (it lives
// in the MapStats every FileRef of the server shares) until a batch is
// worth one process_madvise. mu is taken after a segment lock, never
// before, and the flush's system call runs under mu alone.
type zapQueue struct {
	mu    sync.Mutex
	spans []zapSpan
	bytes int
}

// queueZap appends [lo, hi) of root to the queue and reports whether
// the queue is due for a flush. The caller holds a reference to root.
func (s *MapStats) queueZap(root *MmapRef, lo, hi int) (due bool) {
	s.ZapSpans.Add(1)
	q := &s.zaps
	q.mu.Lock()
	q.spans = append(q.spans, zapSpan{root, lo, hi})
	q.bytes += hi - lo
	due = q.due()
	q.mu.Unlock()
	return due
}

func (q *zapQueue) due() bool {
	return len(q.spans) >= zapQueueSpans || q.bytes >= zapQueueBytes
}

// flushZaps drops the queued pages if the queue is (still) due: of the
// goroutines whose spans filled it, the first one here pays the call.
func (s *MapStats) flushZaps() {
	s.zaps.mu.Lock()
	if s.zaps.due() {
		s.flushZapsLocked()
	}
	s.zaps.mu.Unlock()
}

// flushZapsLocked drops every queued span's pages (s.zaps.mu held).
func (s *MapStats) flushZapsLocked() {
	q := &s.zaps
	s.ZapCalls.Add(zapBatch(q.spans))
	clear(q.spans)
	q.spans, q.bytes = q.spans[:0], 0
}

// cancelZaps removes every queued span of root that overlaps [lo, hi):
// a refill about to fault those pages back in, or the munmap about to
// retire the range.
func (s *MapStats) cancelZaps(root *MmapRef, lo, hi int) {
	q := &s.zaps
	q.mu.Lock()
	kept := q.spans[:0]
	for _, z := range q.spans {
		if z.root == root && z.lo < hi && lo < z.hi {
			q.bytes -= z.hi - z.lo
			continue
		}
		kept = append(kept, z)
	}
	clear(q.spans[len(kept):])
	q.spans = kept
	q.mu.Unlock()
}
