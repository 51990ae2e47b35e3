//go:build linux

package cache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"testing"
)

// A mapped chunk's end-to-end lifecycle: map, publish through a fill,
// look up the real file bytes, and verify the file's reference count
// at every stage — each cached chunk holds one, lookups add none, and
// invalidation drops them without touching the entry's hold, which
// keeps the mapping until it goes.
func TestMmapChunkLifecycleRefcounts(t *testing.T) {
	size := 2400 // > 1 chunk
	ref, content, stats := mappedFile(t, size)
	st := testStore(1, 1<<20)
	v := st.View(0)

	publishFile(t, st, v, ref, "/f", size)
	chunks := st.NumChunks(int64(size))
	// The entry's + one per chunk; the finished fill dropped its pins.
	if got := ref.Refs(); got != 1+chunks {
		t.Fatalf("refs after the fill = %d, want %d (entry + one per chunk)", got, 1+chunks)
	}

	// A lookup pins the segment's chunk: its bytes, no new reference.
	key := ChunkKey{Path: "/f", Index: 0}
	off, n := st.ChunkRange(int64(size), 0)
	c := v.Lookup(key, 1)
	if c == nil || !bytes.Equal(c.Data, content[off:off+n]) || c.File != ref {
		t.Fatal("chunk bytes differ from file bytes")
	}
	if got := ref.Refs(); got != 1+chunks {
		t.Fatalf("refs after the first lookup = %d, want %d", got, 1+chunks)
	}
	v.Release(c)

	// A warm lookup serves the same mapping, no new references.
	c2 := v.Lookup(key, 1)
	if c2 == nil || &c2.Data[0] != &c.Data[0] {
		t.Fatal("lookup did not return the shared mapped bytes")
	}
	v.Release(c2)
	if got := ref.Refs(); got != 1+chunks {
		t.Fatalf("refs after warm lookup = %d, want %d", got, 1+chunks)
	}

	// Invalidation drops the segment's chunks: their holds go, only the
	// entry's remains — and the pages stay mapped until it releases.
	v.InvalidateFile("/f", int64(size), 1)
	if got := ref.Refs(); got != 1 {
		t.Fatalf("refs after invalidate = %d, want 1 (the entry's only)", got)
	}
	if stats.Unmaps.Load() != 0 {
		t.Fatal("region unmapped before the final release")
	}
	ref.Release()
	if got := stats.Unmaps.Load(); got != 1 {
		t.Fatalf("unmaps after the final release = %d, want 1", got)
	}
}

// A mapping may not be unmapped while any holder still references its
// bytes: budget pressure must leave a pinned reader's chunk resident
// and its bytes valid, and reclaim the budget once it lets go; a file
// whose entry is gone is unmapped when its chunk leaves.
func TestMmapEvictionKeepsSharedMappingAlive(t *testing.T) {
	// One segment with a one-chunk budget: every insert evicts the
	// previous chunk.
	st := testStore(1, 1024, func(o *StoreOptions) { o.Segments = 1 })
	v := st.View(0)
	stats := new(MapStats)

	// fill publishes a one-chunk file as path, and drops the creator's
	// reference: the chunk holds the file's last one.
	fill := func(path string) {
		ref, _ := mappedFileIn(t, 1024, stats)
		publishFile(t, st, v, ref, path, 1024)
		ref.Release()
	}
	fill("/a")
	// The reader keeps its pin on /a while /b0../b3 storm the budget and
	// evict one another.
	c := v.Lookup(ChunkKey{Path: "/a", Index: 0}, 1)
	if c == nil {
		t.Fatal("/a not resident after its fill")
	}
	want := slices.Clone(c.Data)
	for i := 0; i < 4; i++ {
		fill(fmt.Sprintf("/b%d", i))
	}
	// The pinned chunk's bytes must still be readable (on Linux this
	// faults if the region were unmapped).
	if !bytes.Equal(c.Data, want) || c.File.Refs() != 1 {
		t.Fatal("pinned mapped chunk corrupted by eviction pressure")
	}
	if c2 := v.Lookup(ChunkKey{Path: "/a", Index: 0}, 1); c2 != c {
		t.Fatalf("the pinned chunk was evicted: a lookup returned %v", c2)
	}
	// Each /b left the cache with its file's last reference.
	if got := stats.Unmaps.Load(); got != 4 {
		t.Fatalf("unmaps = %d after four evictions, want 4", got)
	}
	v.Release(c)
	v.Release(c)
	if got := st.SharedStats().UsedBytes; got > 1024 {
		t.Fatalf("budget not reclaimed: used %d, limit 1024", got)
	}
	v.InvalidateFile("/a", 1024, 1)
	if got := stats.Unmaps.Load(); got != 5 {
		t.Fatalf("unmaps = %d once /a's chunk left too, want 5", got)
	}
}

// PublishFile must consume the file reference on every branch: adopted
// when the chunk lands, released when the fill is doomed or already
// over — for a mapped chunk and a window alike.
func TestFillPublishMappedConsumesRef(t *testing.T) {
	ref, _, _ := mappedFile(t, 3072)
	defer ref.Release()
	m, err := ref.Map(3072)
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(1, 1<<20)
	v := st.View(0)

	fill, started := v.JoinFill("/f", 3072, 1)
	if !started {
		t.Fatal("JoinFill did not start")
	}
	if !fill.PublishFile(ref.Acquire(), 0, 1024, m[:1024]) {
		t.Fatal("PublishFile(0) said stop")
	}
	if !fill.PublishFile(ref.Acquire(), 1024, 1024, nil) {
		t.Fatal("PublishFile(1) said stop")
	}
	if got := ref.Refs(); got != 3 { // entry + the fill's pinned chunks
		t.Fatalf("refs after publish = %d, want 3", got)
	}

	// Invalidate mid-fill: the next publish must fail the fill and
	// release the incoming reference rather than leaking it.
	v.InvalidateFile("/f", 3072, 1)
	if fill.PublishFile(ref.Acquire(), 2048, 1024, m[2048:]) {
		t.Fatal("doomed fill accepted a publish")
	}
	if _, _, err := fill.ChunkAt(2, nil); err != ErrFillStale {
		t.Fatalf("err = %v, want ErrFillStale", err)
	}
	// Chunks 0 and 1 were detached by the invalidation and their last
	// holds were the fill's, dropped at failure: only the entry remains.
	if got := ref.Refs(); got != 1 {
		t.Fatalf("refs after doomed fill = %d, want 1", got)
	}
	// A fill already over releases what it is handed, too.
	if fill.PublishFile(ref.Acquire(), 2048, 1024, nil) {
		t.Fatal("failed fill accepted a publish")
	}
	if got := ref.Refs(); got != 1 {
		t.Fatalf("refs after publishing into a failed fill = %d, want 1", got)
	}
}

// Empty files cannot be mmapped; Map must hand back empty bytes instead
// of an mmap error, and park, count and unmap nothing.
func TestMapChunkZeroLength(t *testing.T) {
	ref, _, stats := mappedFile(t, 0)
	m, err := ref.Map(0)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || len(m) != 0 {
		t.Fatalf("zero-length map = %v (nil=%v), want empty bytes", m, m == nil)
	}
	ref.Release()
	if maps, unmaps := stats.Maps.Load(), stats.Unmaps.Load(); maps != 0 || unmaps != 0 {
		t.Fatalf("maps=%d unmaps=%d for an empty file, want 0 and 0", maps, unmaps)
	}
}

// Truncating a file under a live mapping makes its pages fault; Touch
// must report that as ErrMapFault on the calling goroutine instead of
// letting SIGBUS kill the process, and leave the goroutine's fault
// mode as it found it.
func TestTouchRecoversTruncationFault(t *testing.T) {
	size := 4 * os.Getpagesize()
	ref, _, _ := mappedFile(t, size)
	defer ref.Release()
	if _, err := ref.Map(int64(size)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Touch(0, int64(size)); err != nil {
		t.Fatalf("Touch of an intact file: %v", err)
	}
	if err := os.Truncate(ref.File().Name(), 0); err != nil {
		t.Fatal(err)
	}
	if err := ref.Touch(0, int64(size)); err != ErrMapFault {
		t.Fatalf("Touch after truncation = %v, want ErrMapFault", err)
	}
	if was := debug.SetPanicOnFault(false); was {
		t.Fatal("Touch left panic-on-fault enabled on the caller's goroutine")
	}
}

// mappedFile writes a file of n pattern bytes and adopts it into a
// FileRef counted in the returned MapStats.
func mappedFile(t testing.TB, n int) (*FileRef, []byte, *MapStats) {
	t.Helper()
	stats := new(MapStats)
	ref, content := mappedFileIn(t, n, stats)
	return ref, content, stats
}

// mappedFileIn is mappedFile counted in stats, which the FileRef shares
// with the others of a test (one server's MapStats).
func mappedFileIn(t testing.TB, n int, stats *MapStats) (*FileRef, []byte) {
	t.Helper()
	content := make([]byte, n)
	for i := range content {
		content[i] = byte(i*13 + i>>9)
	}
	name := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(name, content, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewFileRef(f, stats), content
}

// publishFile streams ref's file through a fill the way a fill job
// does for a file of one chunk — each chunk touched bytes of the parked
// mapping, holding a reference of its own — then reads every chunk
// still resident back once, in order, as the fill's subscribers would.
func publishFile(t *testing.T, st *ShardedStore, v View, ref *FileRef, path string, size int) {
	t.Helper()
	m, err := ref.Map(int64(size))
	if err != nil {
		t.Fatal(err)
	}
	fill, started := v.JoinFill(path, int64(size), 1)
	if !started {
		t.Fatal("JoinFill joined a fill in flight")
	}
	for i := 0; i < fill.NumChunks(); i++ {
		off, n := fill.ChunkRange(i)
		if err := ref.Touch(off, n); err != nil {
			t.Fatal(err)
		}
		fill.PublishFile(ref.Acquire(), off, n, m[off:off+n])
	}
	for i := 0; i < st.NumChunks(int64(size)); i++ {
		if c := v.Lookup(ChunkKey{Path: path, Index: i}, 1); c != nil {
			v.Release(c)
		}
	}
}

// TestParkedMappingLifetime pins the lifetime rule: the mapping is made
// once per FileRef, survives the eviction (and zapping) of every chunk
// of it, serves the refill byte-exact, outlives the entry's reference
// for as long as a chunk holds one — the descriptor with it — and is
// unmapped exactly once.
func TestParkedMappingLifetime(t *testing.T) {
	pg := os.Getpagesize()
	size := 3*4*pg + 100 // three chunks and a ragged tail
	ref, content, stats := mappedFile(t, size)
	// One segment, a budget of two chunks: publishing the file's four
	// chunks evicts its first ones again.
	st := testStore(1, int64(2*4*pg), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments = int64(4*pg), 1
	})
	v := st.View(0)

	publishFile(t, st, v, ref, "/f", size)
	if ev := st.SharedStats().Chunks.Evictions; ev < 2 {
		t.Fatalf("%d evictions while publishing four chunks into a two-chunk budget", ev)
	}
	if got := stats.Maps.Load(); got != 1 {
		t.Fatalf("maps after the first fill = %d, want 1", got)
	}
	// Refill: the same mapping again; zapped pages fault back in.
	publishFile(t, st, v, ref, "/f", size)
	if maps, unmaps := stats.Maps.Load(), stats.Unmaps.Load(); maps != 1 || unmaps != 0 {
		t.Fatalf("after a refill: maps=%d unmaps=%d, want 1 and 0", maps, unmaps)
	}
	last := st.NumChunks(int64(size)) - 1
	c := v.Lookup(ChunkKey{Path: "/f", Index: last}, 1)
	if c == nil {
		t.Fatal("the last chunk published is not resident")
	}
	off, n := st.ChunkRange(int64(size), last)
	if !bytes.Equal(c.Data, content[off:off+n]) {
		t.Fatal("refilled chunk differs from the file")
	}
	if got := ref.Refs(); got != 3 {
		t.Fatalf("file refs = %d with two chunks resident, want the entry's and one per chunk", got)
	}

	// The path entry dies with chunks still cached, one of them pinned:
	// descriptor and mapping stay until the last chunk lets go.
	ref.Release()
	if ref.Refs() != 2 || stats.Unmaps.Load() != 0 {
		t.Fatalf("after the entry's release: refs=%d unmaps=%d, want 2 and 0", ref.Refs(), stats.Unmaps.Load())
	}
	if _, err := ref.File().ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("descriptor closed under cached chunks: %v", err)
	}
	if !bytes.Equal(c.Data, content[off:off+n]) {
		t.Fatal("pinned chunk unreadable after its entry died")
	}
	v.Release(c)
	v.InvalidateFile("/f", int64(size), 1)
	if got := stats.Unmaps.Load(); got != 1 {
		t.Fatalf("unmaps after the last chunk went = %d, want 1", got)
	}
	if _, err := ref.File().ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read after the last reference went: %v, want the descriptor closed", err)
	}
}

// TestFileRefHeldByEveryFileChunk pins the one count: a mapped chunk and
// a window chunk of a file each hold one reference to its FileRef, so
// after the entry's reference goes the descriptor stays open and the
// mapping mapped until the last chunk leaves the cache — and then the
// file is unmapped once and closed once.
func TestFileRefHeldByEveryFileChunk(t *testing.T) {
	const size = 1024 // one chunk
	ref, content, stats := mappedFile(t, size)
	st := testStore(1, 1<<20)
	v := st.View(0)
	m, err := ref.Map(size)
	if err != nil {
		t.Fatal(err)
	}
	// The file's mapped chunk under one path, a window of it under
	// another.
	mapped, _ := v.JoinFill("/mapped", size, 1)
	mapped.PublishFile(ref.Acquire(), 0, size, m)
	window, _ := v.JoinFill("/window", size, 1)
	window.PublishFile(ref.Acquire(), 0, size, nil)
	if got := ref.Refs(); got != 3 {
		t.Fatalf("refs = %d, want 3 (the entry's, the mapped chunk's, the window's)", got)
	}
	for path, kind := range map[string]string{"/mapped": "mapped", "/window": "window"} {
		c := v.Lookup(ChunkKey{Path: path}, 1)
		if c == nil || c.File != ref || c.Off != 0 || c.Size != size || (c.Data != nil) != (kind == "mapped") {
			t.Fatalf("%s chunk = %+v, want a %s chunk of the file", path, c, kind)
		}
		v.Release(c)
	}

	ref.Release() // the path entry dies
	open := func() bool {
		_, err := ref.File().ReadAt(make([]byte, 1), 0)
		return !errors.Is(err, os.ErrClosed)
	}
	for _, path := range []string{"/mapped", "/window"} {
		if !open() || stats.Unmaps.Load() != 0 {
			t.Fatalf("before %s left: open=%v unmaps=%d, want the descriptor open and the mapping mapped",
				path, open(), stats.Unmaps.Load())
		}
		if c := v.Lookup(ChunkKey{Path: "/mapped"}, 1); c != nil {
			if !bytes.Equal(c.Data, content) {
				t.Fatal("mapped chunk unreadable while cached")
			}
			v.Release(c)
		}
		v.InvalidateFile(path, size, 1)
	}
	if ref.Refs() != 0 || open() {
		t.Fatalf("after the last chunk left: refs=%d open=%v, want 0 and closed", ref.Refs(), open())
	}
	if maps, unmaps := stats.Maps.Load(), stats.Unmaps.Load(); maps != 1 || unmaps != 1 {
		t.Fatalf("maps=%d unmaps=%d, want one of each", maps, unmaps)
	}
	if err := ref.File().Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("closing the descriptor again: %v, want it closed already", err)
	}
}

// TestAllocsPublishMapped: publishing a mapped chunk into a fill — the
// fill job's per-chunk touch and publish — allocates the Chunk and
// nothing else. The fill is long enough that its pin list and the
// segment's index grow less than once per publish.
func TestAllocsPublishMapped(t *testing.T) {
	const runs, chunk = 1000, 1024
	size := (runs + 2) * chunk
	ref, _, _ := mappedFile(t, size)
	defer ref.Release()
	m, err := ref.Map(int64(size))
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(1, int64(2*size))
	fill, _ := st.View(0).JoinFill("/f", int64(size), 1)
	off := int64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ref.Touch(off, chunk); err != nil {
			t.Fatal(err)
		}
		fill.PublishFile(ref.Acquire(), off, chunk, m[off:off+chunk])
		off += chunk
	})
	if allocs != 1 {
		t.Fatalf("%v allocations per mapped publish, want 1 (the Chunk)", allocs)
	}
}

// TestParkedMappingSizeMismatch: a mapping parked under one size is not
// handed to a caller whose identity states another — that job reads.
func TestParkedMappingSizeMismatch(t *testing.T) {
	ref, _, _ := mappedFile(t, 5000)
	defer ref.Release()
	if _, err := ref.Map(5000); err != nil {
		t.Fatal(err)
	}
	if m, err := ref.Map(4000); err == nil {
		t.Fatalf("Map(4000) of a file parked at 5000 bytes returned %d bytes", len(m))
	}
}

// TestEvictionZapsEachView: an insert one chunk over the budget evicts
// one victim, the LRU chunk — alone, though its neighbours on the free
// list are the adjacent chunks of the same mapping — and queues its one
// span; the zapped bytes read back intact through the parked mapping.
func TestEvictionZapsEachView(t *testing.T) {
	pg := os.Getpagesize()
	chunk := 4 * pg
	refA, contentA, statsA := mappedFile(t, 3*chunk)
	refB, _, _ := mappedFile(t, chunk)
	defer refA.Release()
	defer refB.Release()
	// Room for A's three chunks exactly.
	st := testStore(1, int64(3*chunk), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments = int64(chunk), 1
	})
	v := st.View(0)
	publishFile(t, st, v, refA, "/a", 3*chunk)
	before, spans := st.SharedStats().Chunks.Evictions, statsA.ZapSpans.Load()
	publishFile(t, st, v, refB, "/b", chunk) // one chunk over: A's chunk 0 is the victim
	if got := st.SharedStats().Chunks.Evictions - before; got != 1 {
		t.Fatalf("%d chunks evicted by one insert one chunk over the budget, want 1", got)
	}
	if got := statsA.ZapSpans.Load() - spans; got != 1 {
		t.Fatalf("%d spans of /a zapped, want the victim's one", got)
	}
	if c := v.Lookup(ChunkKey{Path: "/a", Index: 1}, 1); c == nil {
		t.Fatal("/a's chunk 1 went with the victim")
	} else {
		v.Release(c)
	}
	m, err := refA.Map(int64(3 * chunk))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m[:chunk], contentA[:chunk]) {
		t.Fatal("a zapped chunk's pages read back different bytes")
	}
}
