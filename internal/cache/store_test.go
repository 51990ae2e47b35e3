package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testStore(shards int, mapBytes int64, opts ...func(*StoreOptions)) *ShardedStore {
	o := StoreOptions{
		Shards:        shards,
		PathEntries:   64,
		HeaderEntries: 64,
		MapBytes:      mapBytes,
		ChunkBytes:    1024,
	}
	for _, fn := range opts {
		fn(&o)
	}
	return NewShardedStore(o)
}

func chunkData(b byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

// An insert through one view must be visible to every other view (the
// shared tier). Each view counts its own lookups as hits and misses —
// the per-loop lookup count a server's Stats report — while the
// segments count every view's lookups again.
func TestStoreCrossShardVisibilityAndReplication(t *testing.T) {
	st := testStore(2, 1<<20)
	v0, v1 := st.View(0), st.View(1)
	key := ChunkKey{Path: "/a", Index: 0}

	if c := v1.Lookup(key, 7); c != nil {
		t.Fatalf("lookup of a chunk nobody inserted hit: %v", c)
	}
	v0.Release(v0.Insert(key, chunkData('x', 100), 100, 7))
	for i := 0; i < 2; i++ {
		c := v1.Lookup(key, 7)
		if c == nil || c.Data[0] != 'x' {
			t.Fatalf("view 1 missed a chunk view 0 inserted: %v", c)
		}
		v1.Release(c)
	}
	if c := v1.Lookup(key, 8); c != nil { // another generation: a miss
		t.Fatalf("lookup of another generation hit: %v", c)
	}

	if got := v1.LocalStats().Chunks; got.Hits != 2 || got.Misses != 2 {
		t.Fatalf("view 1 lookups = %d hits, %d misses; want 2 and 2", got.Hits, got.Misses)
	}
	if got := v0.LocalStats().Chunks; got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("view 0 lookups = %d hits, %d misses; an insert is not a lookup", got.Hits, got.Misses)
	}
	if got := st.SharedStats().Chunks; got.Hits != 2 || got.Misses != 2 {
		t.Fatalf("segment lookups = %d hits, %d misses; want the views' 2 and 2", got.Hits, got.Misses)
	}
}

// A chunk recorded under one file generation must miss for a request
// holding a different one, and an insert of the new generation —
// through any view — replaces it for every view.
func TestStoreLookupRejectsWrongGeneration(t *testing.T) {
	st := testStore(2, 1<<20)
	v, v1 := st.View(0), st.View(1)
	key := ChunkKey{Path: "/a", Index: 0}
	v.Release(v.Insert(key, chunkData('x', 10), 10, 7))
	if c := v.Lookup(key, 8); c != nil {
		t.Fatalf("lookup with mismatched modTime hit: %+v", c)
	}
	if c := v.Lookup(key, 7); c == nil {
		t.Fatal("lookup with matching modTime missed")
	} else {
		v.Release(c)
	}

	c := v1.Insert(key, chunkData('n', 10), 10, 8)
	if c.Data[0] != 'n' || c.ModTime != 8 {
		t.Fatalf("Insert of generation 8 returned %q of generation %d", c.Data[0], c.ModTime)
	}
	v1.Release(c)
	if c := v.Lookup(key, 7); c != nil {
		t.Fatalf("the replaced generation still hits: %+v", c)
	}
	wantChunk(t, v, "/a", 0, 8, 'n')
}

// The byte budget belongs to the store, not the shards: the same
// working set fits (and overflows) identically at any shard count.
func TestStoreBudgetIndependentOfShardCount(t *testing.T) {
	const mapBytes = 64 << 10 // 64 chunks of 1 KiB
	for _, shards := range []int{1, 4} {
		st := testStore(shards, mapBytes)
		v := st.View(0)
		for i := 0; i < 128; i++ {
			key := ChunkKey{Path: fmt.Sprintf("/f%d", i), Index: 0}
			v.Release(v.Insert(key, chunkData(byte(i), 1024), 1024, 1))
		}
		used := st.SharedStats().UsedBytes
		if used > mapBytes {
			t.Fatalf("shards=%d: used %d bytes, budget %d", shards, used, mapBytes)
		}
		if used < mapBytes/2 {
			t.Fatalf("shards=%d: used %d bytes, budget %d barely filled", shards, used, mapBytes)
		}
	}
}

// The fill lifecycle: one producer publishing in order, a parked
// subscriber woken per chunk, auto-finish on the last chunk, and the
// record retiring so a later cold pass starts fresh.
func TestFillPublishWakeFinish(t *testing.T) {
	st := testStore(1, 1<<20)
	v := st.View(0)
	const size, mod = 3 * 1024, int64(5)

	f, started := v.JoinFill("/f", size, mod)
	if f == nil || !started {
		t.Fatalf("JoinFill = %v, %v; want new fill", f, started)
	}
	if f.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d, want 3", f.NumChunks())
	}

	// Same identity joins. A different identity gets the in-flight fill
	// too — the path has one fill at a time, and the caller waits for
	// its end — but neither starts one nor counts as a join.
	if f2, started := v.JoinFill("/f", size, mod); f2 != f || started {
		t.Fatalf("second JoinFill = %v, %v; want join of first", f2, started)
	}
	joined := st.SharedStats().Fills.Joined
	if f3, started := v.JoinFill("/f", size, mod+1); f3 != f || started {
		t.Fatalf("JoinFill with mismatched identity = %v, %v; want the in-flight fill, not started", f3, started)
	}
	if got := st.SharedStats().Fills.Joined; got != joined {
		t.Fatalf("Joined = %d after a mismatched JoinFill, want %d", got, joined)
	}

	// Park on chunk 1, then publish chunks one at a time.
	woken := make(chan struct{}, 4)
	if c, pending, err := f.ChunkAt(1, func() { woken <- struct{}{} }); c != nil || !pending || err != nil {
		t.Fatalf("ChunkAt(1) before publish = %v, %v, %v", c, pending, err)
	}
	if !f.Publish(chunkData('a', 1024)) {
		t.Fatal("Publish(0) said stop")
	}
	select {
	case <-woken:
		t.Fatal("waiter for chunk 1 woken by chunk 0")
	default:
	}
	if c, pending, err := f.ChunkAt(0, nil); c == nil || pending || err != nil {
		t.Fatalf("ChunkAt(0) after publish = %v, %v, %v", c, pending, err)
	} else {
		if c.Data[0] != 'a' {
			t.Fatal("chunk 0 bytes wrong")
		}
		v.Release(c)
	}
	if !f.Publish(chunkData('b', 1024)) {
		t.Fatal("Publish(1) said stop")
	}
	select {
	case <-woken:
	default:
		t.Fatal("waiter for chunk 1 not woken by its publish")
	}
	if f.Publish(chunkData('c', 1024)) {
		t.Fatal("Publish of the final chunk said keep going")
	}

	// Finished: ChunkAt reports the fall-back sentinel, the chunks are
	// in the shared tier, and the record is gone.
	if c, pending, err := f.ChunkAt(2, nil); c != nil || pending || err != nil {
		t.Fatalf("ChunkAt after finish = %v, %v, %v; want all-zero", c, pending, err)
	}
	for i, b := range []byte{'a', 'b', 'c'} {
		c := v.Lookup(ChunkKey{Path: "/f", Index: i}, mod)
		if c == nil || c.Data[0] != b {
			t.Fatalf("chunk %d not cached after fill", i)
		}
		v.Release(c)
	}
	if n := st.SharedStats().ActiveFills; n != 0 {
		t.Fatalf("%d fill records after finish, want the record retired", n)
	}
	// A late miss on a chunk that is resident after all gets a finished
	// fill that sends it back to the cache, not a second disk pass.
	if f2, started := v.JoinFillAt(ChunkKey{Path: "/f", Index: 1}, size, mod); started || f2 == f {
		t.Fatalf("JoinFillAt of a resident chunk = %v, %v; want a fresh, finished fill", f2, started)
	} else if c, pending, err := f2.ChunkAt(1, nil); c != nil || pending || err != nil {
		t.Fatalf("ChunkAt of the finished fill = %v, %v, %v; want all-zero", c, pending, err)
	}
	// Once the chunk is gone, the next cold pass starts fresh.
	v.InvalidateFile("/f", size, mod)
	if _, started := v.JoinFillAt(ChunkKey{Path: "/f", Index: 1}, size, mod); !started {
		t.Fatal("JoinFillAt after the chunks went did not start a fill")
	}
	fs := st.SharedStats().Fills
	if fs.Started != 2 || fs.Joined != 1 || fs.Completed != 1 {
		t.Fatalf("fill stats = %+v", fs)
	}
}

// Fail must wake every parked subscriber with the error, and the
// chunks already published stay cached (they were read under a
// verified identity).
func TestFillFailWakesWaiters(t *testing.T) {
	st := testStore(1, 1<<20)
	v := st.View(0)
	f, _ := v.JoinFill("/f", 2*1024, 1)
	f.Publish(chunkData('a', 1024))

	woken := make(chan struct{})
	if _, pending, _ := f.ChunkAt(1, func() { close(woken) }); !pending {
		t.Fatal("ChunkAt(1) not pending")
	}
	boom := errors.New("boom")
	f.Fail(boom)
	<-woken
	if _, _, err := f.ChunkAt(1, nil); err != boom {
		t.Fatalf("ChunkAt after Fail: err = %v, want boom", err)
	}
	if c := v.Lookup(ChunkKey{Path: "/f", Index: 0}, 1); c == nil {
		t.Fatal("published chunk dropped by unrelated failure")
	} else {
		v.Release(c)
	}
	if st.SharedStats().Fills.Failed != 1 {
		t.Fatalf("fill stats = %+v", st.SharedStats().Fills)
	}
}

// InvalidateFile mid-fill dooms it: the next publish fails with
// ErrFillStale instead of caching bytes from a dead generation.
func TestFillDoomedByInvalidate(t *testing.T) {
	st := testStore(1, 1<<20)
	v := st.View(0)
	f, _ := v.JoinFill("/f", 2*1024, 1)
	f.Publish(chunkData('a', 1024))
	v.InvalidateFile("/f", 2*1024, 1)
	if f.Publish(chunkData('b', 1024)) {
		t.Fatal("doomed fill accepted a publish")
	}
	if _, _, err := f.ChunkAt(1, nil); err != ErrFillStale {
		t.Fatalf("err = %v, want ErrFillStale", err)
	}
	if c := v.Lookup(ChunkKey{Path: "/f", Index: 0}, 1); c != nil {
		t.Fatal("invalidated chunk still cached")
	}
}

// Invalidation retires one generation: a late InvalidateFile for the
// stale identity must leave the replacement's chunks cached and its
// in-flight fill healthy (a stale waiter used to doom the fill that
// replaced the one it was parked on).
func TestInvalidateFileSparesOtherGenerations(t *testing.T) {
	st := testStore(1, 1<<20)
	v := st.View(0)
	key := ChunkKey{Path: "/f", Index: 0}
	v.Release(v.Insert(key, chunkData('o', 1024), 1024, 1)) // generation 1, cached
	v.InvalidateFile("/f", 2*1024, 1)
	f, started := v.JoinFill("/f", 2*1024, 2) // generation 2 starts loading
	if !started {
		t.Fatal("JoinFill did not start")
	}
	f.Publish(chunkData('n', 1024))

	v.InvalidateFile("/f", 2*1024, 1) // the stale generation's second waiter

	f.Publish(chunkData('n', 1024)) // the final chunk: a doomed fill would fail here
	if _, _, err := f.ChunkAt(1, nil); err != nil {
		t.Fatalf("generation-2 fill doomed by a generation-1 invalidation: %v", err)
	}
	c := v.Lookup(key, 2)
	if c == nil || c.Data[0] != 'n' {
		t.Fatal("generation-2 chunk dropped by a generation-1 invalidation")
	}
	v.Release(c)
	if fs := st.SharedStats().Fills; fs.Completed != 1 || fs.Failed != 0 {
		t.Fatalf("fill stats = %+v, want one completed fill", fs)
	}
}

// fillFile streams a file of chunks*1024 bytes of b through a fresh
// fill on v, under generation mod, to completion.
func fillFile(t *testing.T, v View, path string, chunks int, mod int64, b byte) {
	t.Helper()
	f, started := v.JoinFill(path, int64(chunks*1024), mod)
	if !started {
		t.Fatalf("JoinFill(%s, gen %d) joined a fill in flight", path, mod)
	}
	for i := 0; i < chunks; i++ {
		f.Publish(chunkData(b, 1024))
	}
}

// wantChunk asserts that v holds chunk i of path under generation mod
// with bytes b.
func wantChunk(t *testing.T, v View, path string, i int, mod int64, b byte) {
	t.Helper()
	c := v.Lookup(ChunkKey{Path: path, Index: i}, mod)
	if c == nil {
		t.Fatalf("chunk %d of generation %d missed", i, mod)
	}
	defer v.Release(c)
	if c.Data[0] != b || c.ModTime != mod {
		t.Fatalf("chunk %d looked up as generation %d holds %q of generation %d, want %q",
			i, mod, c.Data[0], c.ModTime, b)
	}
}

// A fill of a new generation must replace the chunks a completed fill
// of the old one left resident, not adopt them under the new tag (two
// shards, one still on the old identity, can publish both).
func TestGenerationFillReplacesChunk(t *testing.T) {
	st := testStore(2, 1<<20)
	v0, v1 := st.View(0), st.View(1)
	fillFile(t, v0, "/f", 2, 1, 'o')
	fillFile(t, v1, "/f", 2, 2, 'n')
	for i := 0; i < 2; i++ {
		wantChunk(t, v1, "/f", i, 2, 'n')
		if c := v0.Lookup(ChunkKey{Path: "/f", Index: i}, 1); c != nil {
			t.Fatalf("chunk %d of the replaced generation still resident", i)
		}
	}
}

// Chunks pinned by an active fill must survive eviction pressure even
// when they blow the byte budget (the cache tolerates pinned overflow
// and reclaims at release — here, at fill finish).
func TestFillPinsSurviveEviction(t *testing.T) {
	st := testStore(1, 1024) // one chunk of budget
	v := st.View(0)
	f, _ := v.JoinFill("/big", 4*1024, 1)
	for i := 0; i < 3; i++ {
		if !f.Publish(chunkData(byte('a'+i), 1024)) {
			t.Fatalf("Publish(%d) said stop", i)
		}
		// Every published chunk must still be reachable mid-fill.
		for j := 0; j <= i; j++ {
			c, pending, err := f.ChunkAt(j, nil)
			if c == nil || pending || err != nil {
				t.Fatalf("chunk %d unreachable mid-fill (published %d)", j, i+1)
			}
			v.Release(c)
		}
	}
	f.Publish(chunkData('d', 1024)) // finishes; pins drop; budget reclaims
	if used := st.SharedStats().UsedBytes; used > 1024 {
		t.Fatalf("used %d bytes after finish, budget 1024", used)
	}
}

// Concurrent publishers and subscribers across goroutines (run under
// -race): one producer trickling chunks, several readers streaming.
func TestFillConcurrentReaders(t *testing.T) {
	st := testStore(4, 1<<20)
	const chunks = 16
	v := st.View(0)
	f, _ := v.JoinFill("/f", chunks*1024, 1)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(view View) {
			defer wg.Done()
			for i := 0; i < chunks; i++ {
				for {
					ready := make(chan struct{}, 1)
					c, pending, err := f.ChunkAt(i, func() { ready <- struct{}{} })
					if err != nil {
						t.Errorf("chunk %d: %v", i, err)
						return
					}
					if c != nil {
						if c.Data[0] != byte(i) {
							t.Errorf("chunk %d: wrong bytes", i)
						}
						view.Release(c)
						break
					}
					if !pending {
						// Fill finished; fall back to the cache.
						c := view.Lookup(ChunkKey{Path: "/f", Index: i}, 1)
						if c == nil {
							t.Errorf("chunk %d: lost after finish", i)
							return
						}
						view.Release(c)
						break
					}
					<-ready
				}
			}
		}(st.View(r))
	}
	for i := 0; i < chunks; i++ {
		f.Publish(chunkData(byte(i), 1024))
	}
	wg.Wait()
}

// A proxied key's record: a fill registered with no identity takes the
// one its announce carries, and both a request waiting for the entry
// and a walk that met the fill first are woken by the announce; the
// entry is then read by every view, answers a fresh JoinEntry without a
// fill, and is replaced by another generation's announce, which retires
// the old chunks. A walk of the replaced generation starts no fill, and
// only an invalidation of the entry's own generation drops it.
func TestEntryRecord(t *testing.T) {
	st := testStore(2, 1<<20)
	v0, v1 := st.View(0), st.View(1)
	_, f, started := v0.JoinEntry("/k", 10)
	if f == nil || !started {
		t.Fatalf("JoinEntry of a cold key = %v, %v; want a new fill", f, started)
	}
	if _, f2, started := v1.JoinEntry("/k", 10); f2 != f || started {
		t.Fatal("a second JoinEntry did not join the fill in flight")
	}
	woken := make(chan struct{}, 2)
	if _, pending, _ := f.Entry(func() { woken <- struct{}{} }); !pending {
		t.Fatal("Entry before the announce not pending")
	}
	if _, pending, _ := f.ChunkAt(0, func() { woken <- struct{}{} }); !pending {
		t.Fatal("ChunkAt before the announce not pending")
	}
	if !f.Announce(PathEntry{Translated: "/k", Size: 2048, ModTime: 7, Expires: 100}, true) {
		t.Fatal("Announce refused")
	}
	<-woken
	<-woken
	if pe, _, err := f.Entry(nil); err != nil || pe.ModTime != 7 {
		t.Fatalf("Entry after the announce = %+v, %v", pe, err)
	}
	if size, mod, n := f.Identity(); size != 2048 || mod != 7 || n != 2 {
		t.Fatalf("Identity = %d, %d, %d; want the announced 2048, 7, 2", size, mod, n)
	}
	f.Publish(chunkData('a', 1024))
	f.Publish(chunkData('b', 1024))
	if pe, ok := v1.Entry("/k"); !ok || pe.ModTime != 7 {
		t.Fatal("the other view does not read the announced entry")
	}
	if pe, f2, _ := v1.JoinEntry("/k", 50); f2 != nil || pe.ModTime != 7 {
		t.Fatal("a fresh entry did not answer JoinEntry without a fill")
	}

	_, f, _ = v1.JoinEntry("/k", 150) // expired: revalidate
	if !f.Announce(PathEntry{Translated: "/k", Size: 1024, ModTime: 8, Expires: 300}, false) {
		t.Fatal("Announce of generation 8 refused")
	}
	if c := v0.Lookup(ChunkKey{Path: "/k", Index: 0}, 7); c != nil {
		t.Fatal("generation 7's chunk survived generation 8's announce")
	}
	if f2, started := v0.JoinFillAt(ChunkKey{Path: "/k", Index: 1}, 2048, 7); started {
		t.Fatal("a walk of the replaced generation started a fill")
	} else if _, _, err := f2.ChunkAt(1, nil); err != ErrFillStale {
		t.Fatalf("the replaced generation's fill: err = %v, want ErrFillStale", err)
	}
	v0.InvalidateFile("/k", 2048, 7)
	if _, ok := v1.Entry("/k"); !ok {
		t.Fatal("generation 7's invalidation dropped generation 8's entry")
	}
	v0.InvalidateFile("/k", 1024, 8)
	if _, ok := v1.Entry("/k"); ok {
		t.Fatal("generation 8's invalidation left its entry")
	}
	if fs := st.SharedStats(); fs.ActiveFills != 0 || fs.Fills.Started != 2 || fs.Fills.Completed != 2 {
		t.Fatalf("shared stats = %+v, want two completed fills", fs)
	}
}
