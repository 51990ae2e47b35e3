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
// shared tier), and a shared hit must replicate into the prober's L1
// so the next lookup is loop-local.
func TestStoreCrossShardVisibilityAndReplication(t *testing.T) {
	st := testStore(2, 1<<20)
	v0, v1 := st.View(0), st.View(1)
	key := ChunkKey{Path: "/a", Index: 0}

	c := v0.Insert(key, chunkData('x', 100), 100, 7)
	v0.Release(c)

	// First lookup through the other view: shared-tier hit, replica
	// made.
	c1 := v1.Lookup(key, 7)
	if c1 == nil || c1.Data[0] != 'x' {
		t.Fatalf("view 1 missed a chunk view 0 inserted: %v", c1)
	}
	v1.Release(c1)
	before := v1.LocalStats().Chunks.Hits

	// Second lookup: pure L1 hit — the shared tier's counters must not
	// move.
	sharedBefore := st.SharedStats().Chunks
	c2 := v1.Lookup(key, 7)
	if c2 == nil {
		t.Fatal("L1 replica missing on second lookup")
	}
	v1.Release(c2)
	if got := v1.LocalStats().Chunks.Hits; got != before+1 {
		t.Fatalf("L1 hits = %d, want %d", got, before+1)
	}
	if sharedAfter := st.SharedStats().Chunks; sharedAfter.Hits != sharedBefore.Hits {
		t.Fatalf("second lookup touched the shared tier: %+v -> %+v", sharedBefore, sharedAfter)
	}
}

// A chunk recorded under one file generation must miss for a request
// holding a different one.
func TestStoreLookupRejectsWrongGeneration(t *testing.T) {
	st := testStore(1, 1<<20)
	v := st.View(0)
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
}

// The byte budget belongs to the store, not the shards: the same
// working set fits (and overflows) identically at any shard count.
func TestStoreBudgetIndependentOfShardCount(t *testing.T) {
	const mapBytes = 64 << 10 // 64 chunks of 1 KiB
	for _, shards := range []int{1, 4} {
		st := testStore(shards, mapBytes, func(o *StoreOptions) { o.DisableReplication = true })
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

// OwnerShard must be deterministic and in range — every shard has to
// agree on who runs a fill.
func TestOwnerShardDeterministic(t *testing.T) {
	for _, path := range []string{"/a", "/b/c.html", ""} {
		a, b := OwnerShard(path, 4), OwnerShard(path, 4)
		if a != b || a < 0 || a >= 4 {
			t.Fatalf("OwnerShard(%q) unstable or out of range: %d, %d", path, a, b)
		}
	}
	if OwnerShard("/a", 1) != 0 {
		t.Fatal("single-shard owner must be 0")
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

	// Same identity joins; different identity is refused.
	if f2, started := v.JoinFill("/f", size, mod); f2 != f || started {
		t.Fatalf("second JoinFill = %v, %v; want join of first", f2, started)
	}
	if f3, _ := v.JoinFill("/f", size, mod+1); f3 != nil {
		t.Fatal("JoinFill with mismatched identity returned the in-flight fill")
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
	if _, started := v.JoinFill("/f", size, mod); !started {
		t.Fatal("fill record did not retire at finish")
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
	v.InvalidateFile("/f", 1, 2)
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
	v.InvalidateFile("/f", 1, 2)
	f, started := v.JoinFill("/f", 2*1024, 2) // generation 2 starts loading
	if !started {
		t.Fatal("JoinFill did not start")
	}
	f.Publish(chunkData('n', 1024))

	v.InvalidateFile("/f", 1, 2) // the stale generation's second waiter

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

// Regression: auto-sized L1 must floor at one chunk. With a small
// shared budget, MapBytes/(8*Shards) rounds below the chunk size —
// the old code handed the L1 a zero byte budget, silently disabling
// replica retention (auto conflated with "off"), and every warm
// lookup went back to the shared tier's locks.
func TestAutoL1SizeFloorsAtOneChunk(t *testing.T) {
	// 4096/(8*4) = 128 bytes < the 1024-byte chunk.
	st := testStore(4, 4096)
	v := st.View(0)
	key := ChunkKey{Path: "/a", Index: 0}
	v.Release(v.Insert(key, chunkData('x', 1024), 1024, 1))
	c := v.Lookup(key, 1)
	if c == nil {
		t.Fatal("lookup missed")
	}
	v.Release(c)
	if hits := v.LocalStats().Chunks.Hits; hits != 1 {
		t.Fatalf("L1 hits = %d, want 1 — auto-sized L1 retained nothing", hits)
	}
	// The explicit sentinel still disables retention.
	st2 := testStore(4, 4096, func(o *StoreOptions) { o.L1Bytes = -1 })
	v2 := st2.View(0)
	v2.Release(v2.Insert(key, chunkData('x', 1024), 1024, 1))
	if c := v2.Lookup(key, 1); c != nil {
		v2.Release(c)
	}
	if hits := v2.LocalStats().Chunks.Hits; hits != 0 {
		t.Fatalf("L1 hits with retention disabled = %d, want 0", hits)
	}
}

// Chunks pinned by an active fill must survive eviction pressure even
// when they blow the byte budget (the cache tolerates pinned overflow
// and reclaims at release — here, at fill finish).
func TestFillPinsSurviveEviction(t *testing.T) {
	st := testStore(1, 1024, func(o *StoreOptions) { o.DisableReplication = true }) // one chunk of budget
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
