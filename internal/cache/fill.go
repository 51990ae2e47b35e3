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
// A proxied key's fill is registered before its size is known; its
// producer announces the key's entry first (Announce).
//
// The fill pins every chunk it publishes until it finishes, so
// eviction pressure can never drop a chunk between publish and the
// subscribers' reads. All state is guarded by the owner segment's
// lock; every method but the identity getters is safe from any
// goroutine.
type Fill struct {
	seg  *segment
	path string

	// Guarded by seg.mu; the identity is only written under it (size is
	// -1 until a proxied fill announces), so its producer reads it bare.
	size      int64
	modTime   int64
	numChunks int
	entry     *PathEntry // what Announce stored
	state     fillState
	err       error
	doomed    bool // set by InvalidateFile: next Publish fails ErrFillStale
	pins      []*Chunk
	// waiters park on a chunk index, or on the announce (index -1).
	waiters []fillWaiter
}

func newFill(seg *segment, path string, size, modTime int64) *Fill {
	return &Fill{seg: seg, path: path, size: size, modTime: modTime, numChunks: seg.store.NumChunks(size)}
}

// Path returns the (translated) path being filled.
func (f *Fill) Path() string { return f.path }

// Size and ModTime return the file identity the fill loads; the
// producer re-verifies it before every publish. They, NumChunks and
// ChunkRange are for the producer and for a file's fill, whose identity
// is fixed from the start; anyone else asks Identity.
func (f *Fill) Size() int64    { return f.size }
func (f *Fill) ModTime() int64 { return f.modTime }

// NumChunks returns how many chunks the fill will publish.
func (f *Fill) NumChunks() int { return f.numChunks }

// Identity returns Size, ModTime and NumChunks under the segment lock.
func (f *Fill) Identity() (size, modTime int64, chunks int) {
	f.seg.mu.Lock()
	defer f.seg.mu.Unlock()
	return f.size, f.modTime, f.numChunks
}

// ChunkRange returns the byte range [off, off+n) of chunk index.
func (f *Fill) ChunkRange(index int) (off, n int64) { return f.seg.store.ChunkRange(f.size, index) }

// ChunkAt returns the published chunk at index, pinned for the caller
// (release through the View). pending=true means the chunk has not
// published yet: notify will be invoked exactly once — when the chunk
// publishes, or when the fill ends without it; before a proxied fill
// has announced its entry, when it announces — and the caller calls
// ChunkAt again. A publish runs notify on the producer's goroutine
// while the fill still pins the chunk — the final publish too, whose
// fill is already done by then — so a ChunkAt made inside notify takes
// the chunk however soon eviction would drop it. A non-nil err means
// the fill failed. The all-zero return (nil, false, nil) means the fill
// is over and no longer holds the chunk: look it up in the cache, and
// join a fresh fill if it is gone.
func (f *Fill) ChunkAt(index int, notify func()) (c *Chunk, pending bool, err error) {
	seg := f.seg
	seg.mu.Lock()
	defer seg.mu.Unlock()
	switch {
	case f.state == fillFailed:
		return nil, false, f.err
	case index < len(f.pins):
		c := f.pins[index]
		seg.chunks.pin(c)
		return c, false, nil
	case f.state == fillDone:
		return nil, false, nil
	default:
		if f.size < 0 {
			index = -1
		}
		f.waiters = append(f.waiters, fillWaiter{index: index, notify: notify})
		return nil, true, nil
	}
}

// Entry returns the entry a proxied fill announced. pending=true means
// it has not yet: notify will be invoked once, at the announce or the
// failure, and the caller calls Entry again. A non-nil err means the
// fill failed first (ErrFillStale: it ended without an entry).
func (f *Fill) Entry(notify func()) (pe PathEntry, pending bool, err error) {
	f.seg.mu.Lock()
	defer f.seg.mu.Unlock()
	switch {
	case f.entry != nil:
		return *f.entry, false, nil
	case f.state == fillFailed:
		return PathEntry{}, false, f.err
	case f.state == fillDone:
		return PathEntry{}, false, ErrFillStale
	default:
		f.waiters = append(f.waiters, fillWaiter{index: -1, notify: notify})
		return PathEntry{}, true, nil
	}
}

// Prior returns the key's entry, which the announce will replace: what
// a revalidation sends validators for and stale-if-error serves.
func (f *Fill) Prior() (PathEntry, bool) {
	f.seg.mu.Lock()
	defer f.seg.mu.Unlock()
	return f.seg.entries.peek(f.path)
}

// Announce stores pe as the key's entry — retiring the chunks of the
// one it replaces, if another generation — and wakes the subscribers
// waiting for it. A fill without an identity takes pe's; one a walk
// registered with an identity fails ErrFillStale instead if pe's
// differs. body=false finishes the fill with no chunks, under the same
// lock hold. It reports whether the entry was stored.
func (f *Fill) Announce(pe PathEntry, body bool) bool {
	seg := f.seg
	var wake []func()
	ok := false
	seg.mu.Lock()
	switch {
	case f.state != fillPending:
	case f.doomed || f.size >= 0 && (f.size != pe.Size || f.modTime != pe.ModTime):
		wake = f.failLocked(ErrFillStale)
	default:
		ok = true
		if f.size < 0 {
			f.size, f.modTime, f.numChunks = pe.Size, pe.ModTime, seg.store.NumChunks(pe.Size)
		}
		if old, had := seg.entries.peek(f.path); had && (old.Size != pe.Size || old.ModTime != pe.ModTime) {
			seg.chunks.InvalidateFile(f.path, old.ModTime, seg.store.NumChunks(old.Size))
		}
		f.entry = &pe
		seg.entries.put(f.path, pe)
		wake = f.takeWaitersLocked(-1)
		if !body {
			wake = append(wake, f.finishLocked()...)
		}
	}
	seg.unlock()
	for _, fn := range wake {
		fn()
	}
	return ok
}

// Publish appends the next chunk's bytes (chunks land strictly in
// order), inserts it pinned into the owner segment, and wakes the
// subscribers parked on it. Publishing the final chunk finishes the
// fill: the fill record retires, and its pins are released once the
// subscribers are notified. The return
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
	more, done := false, false
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
		// insert consumes m on both branches (adopted by a new chunk, or
		// released on a merge).
		c := seg.insert(ChunkKey{Path: f.path, Index: idx}, data, m, int64(len(data)), f.modTime)
		consumed = true
		f.pins = append(f.pins, c)
		wake = f.takeWaitersLocked(idx)
		if more = len(f.pins) < f.numChunks; !more {
			wake = append(wake, f.finishLocked()...)
			done = true
		}
	}
	seg.unlock()
	if !consumed {
		m.Release()
	}
	for _, fn := range wake {
		fn()
	}
	if done {
		// The finished fill kept its pins through the wakes, so every
		// woken subscriber could take its chunk; now they go.
		seg.mu.Lock()
		for _, c := range f.pins {
			seg.chunks.Release(c)
		}
		f.pins = nil
		seg.unlock()
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
	seg.unlock()
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
// segment and any stragglers are woken to fall back to plain lookups.
// The fill's pins are the caller's to drop, after the wakes.
func (f *Fill) finishLocked() []func() {
	f.state = fillDone
	delete(f.seg.fills, f.path)
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
