package cache

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"testing/quick"
)

// --- PathCache ---

func TestPathCacheBasic(t *testing.T) {
	c := NewPathCache(10)
	if _, ok := c.Get("/~bob/"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("/~bob/", PathEntry{Translated: "/home/users/bob/public_html/index.html", Size: 1234})
	e, ok := c.Get("/~bob/")
	if !ok || e.Translated != "/home/users/bob/public_html/index.html" {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPathCacheCapacityEviction(t *testing.T) {
	c := NewPathCache(3)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("/f%d", i), PathEntry{Translated: fmt.Sprintf("t%d", i)})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get("/f0"); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get("/f4"); !ok {
		t.Fatal("newest entry evicted")
	}
	if c.Stats().Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", c.Stats().Evictions)
	}
}

func TestPathCacheLRUOrder(t *testing.T) {
	c := NewPathCache(2)
	c.Put("/a", PathEntry{})
	c.Put("/b", PathEntry{})
	c.Get("/a") // promote /a; /b becomes LRU
	c.Put("/c", PathEntry{})
	if _, ok := c.Get("/b"); ok {
		t.Fatal("/b should have been evicted")
	}
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("/a should have survived")
	}
}

func TestPathCacheZeroCapacityDisabled(t *testing.T) {
	c := NewPathCache(0)
	c.Put("/a", PathEntry{Translated: "x"})
	if _, ok := c.Get("/a"); ok {
		t.Fatal("zero-capacity cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestPathCacheInvalidate(t *testing.T) {
	c := NewPathCache(10)
	c.Put("/a", PathEntry{})
	if !c.Invalidate("/a") {
		t.Fatal("Invalidate returned false for present key")
	}
	if c.Invalidate("/a") {
		t.Fatal("Invalidate returned true for absent key")
	}
	if _, ok := c.Get("/a"); ok {
		t.Fatal("invalidated entry still present")
	}
}

func TestPathCacheUpdateInPlace(t *testing.T) {
	c := NewPathCache(5)
	c.Put("/a", PathEntry{Translated: "old"})
	c.Put("/a", PathEntry{Translated: "new"})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	e, _ := c.Get("/a")
	if e.Translated != "new" {
		t.Fatalf("Translated = %q, want new", e.Translated)
	}
}

// Property: cache never exceeds capacity and the most recently inserted
// key is always present (capacity >= 1).
func TestPropertyPathCacheBounds(t *testing.T) {
	f := func(keys []uint8, capRaw uint8) bool {
		capacity := int(capRaw%20) + 1
		c := NewPathCache(capacity)
		for _, k := range keys {
			name := fmt.Sprintf("/k%d", k)
			c.Put(name, PathEntry{Translated: name})
			if c.Len() > capacity {
				return false
			}
			if _, ok := c.Get(name); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- HeaderCache ---

func TestHeaderCacheValidity(t *testing.T) {
	c := NewHeaderCache(10)
	hdr := HeaderEntry{Header: []byte("HTTP/1.1 200 OK\r\n"), Size: 100, ModTime: 1000}
	c.Put("/f", hdr)
	if _, ok := c.Get("/f", 1000); !ok {
		t.Fatal("valid header reported miss")
	}
	// Changed mod time invalidates (the §5.3 regeneration rule).
	if _, ok := c.Get("/f", 2000); ok {
		t.Fatal("stale header returned")
	}
	// And the stale entry is gone entirely.
	if _, ok := c.Get("/f", 1000); ok {
		t.Fatal("stale entry not dropped")
	}
}

func TestHeaderCacheEviction(t *testing.T) {
	c := NewHeaderCache(2)
	c.Put("/a", HeaderEntry{ModTime: 1})
	c.Put("/b", HeaderEntry{ModTime: 1})
	c.Put("/c", HeaderEntry{ModTime: 1})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("/a", 1); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestHeaderCacheZeroCapacity(t *testing.T) {
	c := NewHeaderCache(0)
	c.Put("/a", HeaderEntry{ModTime: 1})
	if _, ok := c.Get("/a", 1); ok {
		t.Fatal("zero-capacity header cache hit")
	}
}

// --- MapCache ---

func TestMapCacheInsertLookupRelease(t *testing.T) {
	m := NewMapCache(1<<20, 64<<10)
	key := ChunkKey{Path: "/f", Index: 0}
	if m.Lookup(key) != nil {
		t.Fatal("lookup hit on empty cache")
	}
	c := m.Insert(key, []byte("data"), 4)
	if c.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", c.Refs())
	}
	c2 := m.Lookup(key)
	if c2 != c {
		t.Fatal("lookup returned different chunk")
	}
	if c.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", c.Refs())
	}
	m.Release(c)
	m.Release(c)
	if c.Refs() != 0 {
		t.Fatalf("refs = %d, want 0", c.Refs())
	}
	if m.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d, want 1", m.FreeLen())
	}
}

func TestMapCacheDoubleInsertMerges(t *testing.T) {
	m := NewMapCache(1<<20, 64<<10)
	key := ChunkKey{Path: "/f", Index: 0}
	a := m.Insert(key, nil, 100)
	b := m.Insert(key, nil, 100)
	if a != b {
		t.Fatal("double insert created two chunks")
	}
	if a.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", a.Refs())
	}
	if m.Used() != 100 {
		t.Fatalf("Used = %d, want 100 (not double-counted)", m.Used())
	}
}

func TestMapCachePinnedChunksNeverEvicted(t *testing.T) {
	m := NewMapCache(100, 64)
	pinned := m.Insert(ChunkKey{Path: "/a", Index: 0}, nil, 80)
	// Insert more than the limit while /a stays pinned.
	b := m.Insert(ChunkKey{Path: "/b", Index: 0}, nil, 80)
	m.Release(b) // b inactive: evicted immediately (over limit)
	if !m.Contains(ChunkKey{Path: "/a", Index: 0}) {
		t.Fatal("pinned chunk evicted")
	}
	if m.Contains(ChunkKey{Path: "/b", Index: 0}) {
		t.Fatal("inactive chunk not evicted while over limit")
	}
	m.Release(pinned)
	if m.Used() > 100 {
		t.Fatalf("Used = %d > limit after release", m.Used())
	}
}

func TestMapCacheLazyUnmap(t *testing.T) {
	// Within the limit, released chunks stay cached (lazy unmapping).
	m := NewMapCache(1000, 64)
	c := m.Insert(ChunkKey{Path: "/a", Index: 0}, nil, 100)
	m.Release(c)
	if !m.Contains(ChunkKey{Path: "/a", Index: 0}) {
		t.Fatal("released chunk dropped while under limit")
	}
	if got := m.Lookup(ChunkKey{Path: "/a", Index: 0}); got == nil {
		t.Fatal("released chunk not found")
	} else if got.Refs() != 1 {
		t.Fatalf("refs after re-lookup = %d, want 1", got.Refs())
	}
}

func TestMapCacheEvictionOrder(t *testing.T) {
	m := NewMapCache(250, 64)
	evicted := []string{}
	m.OnEvict = func(c *Chunk) { evicted = append(evicted, c.Key.Path) }
	a := m.Insert(ChunkKey{Path: "/a", Index: 0}, nil, 100)
	b := m.Insert(ChunkKey{Path: "/b", Index: 0}, nil, 100)
	m.Release(a)
	m.Release(b) // free list: b (MRU), a (LRU)
	c := m.Insert(ChunkKey{Path: "/c", Index: 0}, nil, 100)
	_ = c
	if len(evicted) != 1 || evicted[0] != "/a" {
		t.Fatalf("evicted = %v, want [/a]", evicted)
	}
}

func TestMapCacheZeroLimit(t *testing.T) {
	m := NewMapCache(0, 64)
	c := m.Insert(ChunkKey{Path: "/a", Index: 0}, nil, 100)
	if c == nil || c.Refs() != 1 {
		t.Fatal("zero-limit cache must still pin the in-flight chunk")
	}
	m.Release(c)
	if m.Len() != 0 {
		t.Fatal("zero-limit cache retained a released chunk")
	}
}

func TestMapCacheChunkMath(t *testing.T) {
	m := NewMapCache(1<<20, 100)
	if m.NumChunks(0) != 1 {
		t.Fatal("empty file should have 1 chunk")
	}
	if m.NumChunks(100) != 1 || m.NumChunks(101) != 2 || m.NumChunks(250) != 3 {
		t.Fatal("NumChunks wrong")
	}
	off, n := m.ChunkRange(250, 2)
	if off != 200 || n != 50 {
		t.Fatalf("ChunkRange(250,2) = %d,%d want 200,50", off, n)
	}
	off, n = m.ChunkRange(250, 5)
	if n != 0 {
		t.Fatalf("ChunkRange beyond EOF n = %d, want 0", n)
	}
}

func TestMapCacheInvalidateFile(t *testing.T) {
	m := NewMapCache(1<<20, 64)
	a := m.Insert(ChunkKey{Path: "/f", Index: 0}, nil, 64)
	b := m.Insert(ChunkKey{Path: "/f", Index: 1}, nil, 64)
	m.Release(a)
	// a inactive, b pinned.
	m.InvalidateFile("/f", 0, 2)
	if m.Contains(ChunkKey{Path: "/f", Index: 0}) || m.Contains(ChunkKey{Path: "/f", Index: 1}) {
		t.Fatal("invalidated chunks still indexed")
	}
	// Releasing the pinned chunk must not corrupt accounting.
	m.Release(b)
	if m.Used() != 0 {
		t.Fatalf("Used = %d, want 0", m.Used())
	}
	if m.FreeLen() != 0 {
		t.Fatalf("FreeLen = %d, want 0", m.FreeLen())
	}
}

func TestMapCacheReleaseUnpinnedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewMapCache(1<<20, 64)
	c := m.Insert(ChunkKey{Path: "/f", Index: 0}, nil, 10)
	m.Release(c)
	m.Release(c)
}

// Property: under random insert/lookup/release traffic, Used equals the
// sum of indexed chunk sizes, never exceeds limit+pinned, and the free
// list length never exceeds total chunks.
func TestPropertyMapCacheAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMapCache(500, 64)
		var pinned []*Chunk
		for _, op := range ops {
			which := op % 3
			path := fmt.Sprintf("/f%d", (op/3)%10)
			key := ChunkKey{Path: path, Index: 0}
			switch which {
			case 0:
				pinned = append(pinned, m.Insert(key, nil, int64(op%100)+1))
			case 1:
				if c := m.Lookup(key); c != nil {
					pinned = append(pinned, c)
				}
			case 2:
				if len(pinned) > 0 {
					m.Release(pinned[0])
					pinned = pinned[1:]
				}
			}
			if m.FreeLen() > m.Len() {
				return false
			}
		}
		for _, c := range pinned {
			m.Release(c)
		}
		// After releasing everything, the cache must respect its limit.
		return m.Used() <= 500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty HitRate != 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", s.HitRate())
	}
}

func BenchmarkPathCacheHit(b *testing.B) {
	c := NewPathCache(1000)
	c.Put("/hot", PathEntry{Translated: "/docroot/hot.html"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get("/hot")
	}
}

func BenchmarkMapCacheLookupRelease(b *testing.B) {
	m := NewMapCache(1<<20, 64<<10)
	key := ChunkKey{Path: "/hot", Index: 0}
	c := m.Insert(key, nil, 64<<10)
	m.Release(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Release(m.Lookup(key))
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Evictions: 3, Inserts: 4}
	b := Stats{Hits: 10, Misses: 20, Evictions: 30, Inserts: 40}
	got := a.Add(b)
	want := Stats{Hits: 11, Misses: 22, Evictions: 33, Inserts: 44}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestMapCacheStatsAdd(t *testing.T) {
	a := MapCacheStats{Stats: Stats{Hits: 1}, BytesMapped: 100, BytesUnmapped: 10}
	b := MapCacheStats{Stats: Stats{Misses: 2}, BytesMapped: 200, BytesUnmapped: 20}
	got := a.Add(b)
	want := MapCacheStats{Stats: Stats{Hits: 1, Misses: 2}, BytesMapped: 300, BytesUnmapped: 30}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

// --- FileRef ---

func TestFileRefClosesOnLastRelease(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("payload"); err != nil {
		t.Fatal(err)
	}
	r := NewFileRef(f, new(MapStats))
	r.Acquire() // a concurrent reader
	r.Release() // cache entry evicted: descriptor must survive
	buf := make([]byte, 7)
	if _, err := r.File().ReadAt(buf, 0); err != nil {
		t.Fatalf("read through surviving reference: %v", err)
	}
	if r.Refs() != 1 {
		t.Fatalf("Refs = %d, want 1", r.Refs())
	}
	r.Release() // last reference: now it closes
	if _, err := r.File().ReadAt(buf, 0); err == nil {
		t.Fatal("descriptor still open after last release")
	}
}

// TestFileRefConcurrentAcquireRelease hammers one descriptor from many
// goroutines while the "cache" holds and finally drops its reference —
// the pattern eviction-during-pread exercises. Run with -race.
func TestFileRefConcurrentAcquireRelease(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0123456789"); err != nil {
		t.Fatal(err)
	}
	r := NewFileRef(f, new(MapStats))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		r.Acquire() // handed out by the owner before the workers start
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.Release()
			buf := make([]byte, 10)
			for j := 0; j < 200; j++ {
				if _, err := r.File().ReadAt(buf, 0); err != nil {
					t.Errorf("read on live reference: %v", err)
					return
				}
			}
		}()
	}
	r.Release() // the cache evicts mid-flight
	wg.Wait()
	if got := r.Refs(); got != 0 {
		t.Fatalf("Refs = %d, want 0 after all releases", got)
	}
}
