package cache

import "errors"

// ErrFillStale reports that a fill was invalidated mid-flight: the
// file changed (or was invalidated) after the fill verified its
// identity, so no further chunks may be published under the old
// generation. Subscribers restart their request against the fresh
// identity.
var ErrFillStale = errors.New("cache: fill invalidated by concurrent file change")

// fillState is the fill lifecycle: pending → done | failed.
type fillState int

const (
	fillPending fillState = iota
	fillDone
	fillFailed
)

// fillWaiter is one parked subscriber: notify fires (once) when chunk
// index publishes, or when the fill fails or finishes without it.
type fillWaiter struct {
	index  int
	notify func()
}

// Fill is one single-flight load of a file into the shared chunk
// tier. Concurrent cold requests for the same path all subscribe to
// one Fill (View.JoinFill); exactly one producer streams the file
// through it, publishing chunks as they land — the PackageReader
// append-and-wake idiom, adapted to event loops: a parked subscriber
// gets its notify callback (which posts a loop message) instead of a
// blocked goroutine, so the first byte goes out before the last byte
// is read.
//
// The fill pins every chunk it publishes until it finishes, so
// eviction pressure can never drop a chunk between publish and the
// subscribers' reads. All state is guarded by the owner segment's
// lock; ChunkAt/Publish/Fail are safe from any goroutine.
type Fill struct {
	seg       *segment
	path      string
	size      int64
	modTime   int64
	chunkSize int64
	numChunks int

	// Guarded by seg.mu.
	state   fillState
	err     error
	doomed  bool // set by InvalidateFile: next Publish fails ErrFillStale
	pins    []*Chunk
	waiters []fillWaiter
}

func newFill(seg *segment, path string, size, modTime, chunkSize int64) *Fill {
	n := 1
	if size > 0 {
		n = int((size + chunkSize - 1) / chunkSize)
	}
	return &Fill{
		seg:       seg,
		path:      path,
		size:      size,
		modTime:   modTime,
		chunkSize: chunkSize,
		numChunks: n,
	}
}

// Path returns the (translated) path being filled.
func (f *Fill) Path() string { return f.path }

// Size and ModTime return the file identity the fill was started
// under; the producer re-verifies it before every read.
func (f *Fill) Size() int64    { return f.size }
func (f *Fill) ModTime() int64 { return f.modTime }

// NumChunks returns how many chunks the fill will publish.
func (f *Fill) NumChunks() int { return f.numChunks }

// ChunkRange returns the byte range [off, off+n) of chunk index.
func (f *Fill) ChunkRange(index int) (off, n int64) {
	off = int64(index) * f.chunkSize
	if off >= f.size {
		return off, 0
	}
	n = f.chunkSize
	if off+n > f.size {
		n = f.size - off
	}
	return off, n
}

// ChunkAt returns the published chunk at index, pinned for the caller
// (release through the View). pending=true means the chunk has not
// published yet: notify will be invoked exactly once — when the chunk
// publishes, or when the fill ends without it — and the caller calls
// ChunkAt again. A non-nil err means the fill failed. The all-zero
// return (nil, false, nil) means the fill is over and no longer holds
// the chunk: fall back to a cache lookup or a direct read.
func (f *Fill) ChunkAt(index int, notify func()) (c *Chunk, pending bool, err error) {
	seg := f.seg
	seg.mu.Lock()
	defer seg.mu.Unlock()
	switch {
	case f.state == fillFailed:
		return nil, false, f.err
	case f.state == fillDone:
		return nil, false, nil
	case index < len(f.pins):
		c := f.pins[index]
		seg.chunks.pin(c)
		return c, false, nil
	default:
		f.waiters = append(f.waiters, fillWaiter{index: index, notify: notify})
		return nil, true, nil
	}
}

// Publish appends the next chunk's bytes (chunks land strictly in
// order), inserts it pinned into the owner segment, and wakes the
// subscribers parked on it. Publishing the final chunk finishes the
// fill: its pins are released and the fill record retires. The return
// reports whether the producer should keep going — false after the
// final chunk, a doomed fill (ErrFillStale is delivered to the
// subscribers), or a fill already ended.
func (f *Fill) Publish(data []byte) bool { return f.publish(data, nil) }

// PublishMapped is Publish for a mapped chunk: the published chunk
// adopts m's reference. On every branch that does not insert — a fill
// already ended, doomed, or overrun — the reference is released here,
// so the producer's contract is identical to Publish: hand the
// mapping over and forget it.
func (f *Fill) PublishMapped(m *MmapRef) bool { return f.publish(m.Bytes(), m) }

func (f *Fill) publish(data []byte, m *MmapRef) bool {
	seg := f.seg
	var wake []func()
	more := false
	consumed := m == nil
	seg.mu.Lock()
	switch {
	case f.state != fillPending:
		// Already failed (or done): nothing to publish into.
	case f.doomed:
		wake = f.failLocked(ErrFillStale)
	case len(f.pins) >= f.numChunks:
		// Producer overran the announced geometry (file grew behind
		// the identity checks): stop; the fill completed at its stated
		// size.
	default:
		idx := len(f.pins)
		var c *Chunk
		if m != nil {
			// InsertMapped consumes the reference on both branches
			// (adopted by a new chunk, or released on a merge).
			c = seg.chunks.InsertMapped(ChunkKey{Path: f.path, Index: idx}, m, int64(len(data)))
			consumed = true
		} else {
			c = seg.chunks.Insert(ChunkKey{Path: f.path, Index: idx}, data, int64(len(data)))
		}
		if c.home == 0 {
			c.home = f.seg.tag
		}
		c.ModTime = f.modTime
		f.pins = append(f.pins, c)
		wake = f.takeWaitersLocked(idx)
		if len(f.pins) == f.numChunks {
			wake = append(wake, f.finishLocked()...)
		} else {
			more = true
		}
	}
	seg.mu.Unlock()
	if !consumed {
		m.Release()
	}
	for _, fn := range wake {
		fn()
	}
	return more
}

// Fail ends a pending fill with err, waking every parked subscriber.
// Safe to call on an already-ended fill (no-op).
func (f *Fill) Fail(err error) {
	seg := f.seg
	var wake []func()
	seg.mu.Lock()
	if f.state == fillPending {
		wake = f.failLocked(err)
	}
	seg.mu.Unlock()
	for _, fn := range wake {
		fn()
	}
}

// takeWaitersLocked removes and returns the notify callbacks of every
// waiter whose chunk has published (index <= published).
func (f *Fill) takeWaitersLocked(published int) []func() {
	var wake []func()
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if w.index <= published {
			wake = append(wake, w.notify)
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
	return wake
}

// finishLocked completes the fill: the record retires from the
// segment, the fill's pins drop (subscribers hold their own), and any
// stragglers are woken to fall back to plain lookups.
func (f *Fill) finishLocked() []func() {
	f.state = fillDone
	delete(f.seg.fills, f.path)
	for _, c := range f.pins {
		f.seg.chunks.Release(c)
	}
	f.pins = nil
	wake := make([]func(), 0, len(f.waiters))
	for _, w := range f.waiters {
		wake = append(wake, w.notify)
	}
	f.waiters = nil
	f.seg.store.fillsCompleted.Add(1)
	return wake
}

// failLocked ends the fill with err. Published chunks stay cached
// (they were read under a verified identity) unless an invalidation
// already detached them; the fill merely drops its pins.
func (f *Fill) failLocked(err error) []func() {
	f.state = fillFailed
	f.err = err
	delete(f.seg.fills, f.path)
	for _, c := range f.pins {
		f.seg.chunks.Release(c)
	}
	f.pins = nil
	wake := make([]func(), 0, len(f.waiters))
	for _, w := range f.waiters {
		wake = append(wake, w.notify)
	}
	f.waiters = nil
	f.seg.store.fillsFailed.Add(1)
	return wake
}
