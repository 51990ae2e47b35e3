//go:build linux

package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// writeTempFile creates a file whose chunk contents the mmap tests
// can verify against.
func writeTempFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	name := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// A mapped chunk's end-to-end lifecycle: map, publish through a fill,
// look up the real file bytes, and verify the mapping's reference count
// at every stage — the cache chunk holds one, lookups add none, and
// invalidation drops it without touching the observer's hold.
func TestMmapChunkLifecycleRefcounts(t *testing.T) {
	content := bytes.Repeat([]byte("mmap-engine!"), 200) // > 1 chunk
	f := writeTempFile(t, content)
	st := testStore(1, 1<<20)
	v := st.View(0)

	fill, _ := v.JoinFill("/f", int64(len(content)), 7)
	off, n := fill.ChunkRange(0)
	var hold *MmapRef
	for i := 0; i < fill.NumChunks(); i++ {
		o, m := fill.ChunkRange(i)
		mr, err := MapChunk(f, o, m)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if !bytes.Equal(mr.Bytes(), content[off:off+n]) {
				t.Fatal("mapped bytes differ from file bytes")
			}
			hold = mr.Acquire() // observer's hold, so Refs stays readable
		}
		fill.PublishMapped(mr) // the chunk adopts the mapped ref
	}
	// Ours + the segment chunk's; the finished fill dropped its pin.
	if got := hold.Refs(); got != 2 {
		t.Fatalf("refs after the fill = %d, want 2 (observer + segment)", got)
	}

	// A lookup pins the segment's chunk: its bytes, no new reference.
	key := ChunkKey{Path: "/f", Index: 0}
	c := v.Lookup(key, 7)
	if c == nil || !bytes.Equal(c.Data, content[off:off+n]) {
		t.Fatal("chunk bytes differ from file bytes")
	}
	if got := hold.Refs(); got != 2 {
		t.Fatalf("refs after the first lookup = %d, want 2 (observer + segment)", got)
	}
	v.Release(c)

	// A warm lookup serves the same mapping, no new references.
	c2 := v.Lookup(key, 7)
	if c2 == nil || &c2.Data[0] != &c.Data[0] {
		t.Fatal("lookup did not return the shared mapped bytes")
	}
	v.Release(c2)
	if got := hold.Refs(); got != 2 {
		t.Fatalf("refs after warm lookup = %d, want 2", got)
	}

	// Invalidation drops the segment chunk: its hold goes, only the
	// observer's remains — and the pages stay mapped until it releases.
	v.InvalidateFile("/f", int64(len(content)), 7)
	if got := hold.Refs(); got != 1 {
		t.Fatalf("refs after invalidate = %d, want 1 (observer only)", got)
	}
	if !hold.Mapped() {
		t.Fatal("region unmapped before the final release")
	}
	hold.Release()
}

// A mapping may not be unmapped while any holder still references its
// bytes: budget pressure must leave a pinned reader's chunk resident
// and its bytes valid, and reclaim the budget once it lets go.
func TestMmapEvictionKeepsSharedMappingAlive(t *testing.T) {
	content := bytes.Repeat([]byte("x"), 1024)
	f := writeTempFile(t, content)
	// One segment with a one-chunk budget: every insert evicts the
	// previous chunk.
	st := testStore(1, 1024, func(o *StoreOptions) { o.Segments = 1 })
	v := st.View(0)

	// fill publishes one mapped chunk as file path.
	fill := func(f *os.File, path string) {
		mr, err := MapChunk(f, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		fl, _ := v.JoinFill(path, 1024, 1)
		fl.PublishMapped(mr)
	}
	fill(f, "/a")
	// The reader keeps its pin on /a while /b0../b3 storm the budget and
	// evict one another.
	c := v.Lookup(ChunkKey{Path: "/a", Index: 0}, 1)
	if c == nil {
		t.Fatal("/a not resident after its fill")
	}
	for i := 0; i < 4; i++ {
		fill(writeTempFile(t, content), fmt.Sprintf("/b%d", i))
	}
	// The pinned chunk's bytes must still be readable (on Linux this
	// faults if the region were unmapped).
	if c.Data[0] != 'x' || c.Data[1023] != 'x' {
		t.Fatal("pinned mapped chunk corrupted by eviction pressure")
	}
	if c2 := v.Lookup(ChunkKey{Path: "/a", Index: 0}, 1); c2 != c {
		t.Fatalf("the pinned chunk was evicted: a lookup returned %v", c2)
	}
	v.Release(c)
	v.Release(c)
	if got := st.SharedStats().UsedBytes; got > 1024 {
		t.Fatalf("budget not reclaimed: used %d, limit 1024", got)
	}
}

// PublishMapped must consume the mapping reference on every branch:
// adopted when the chunk lands, released when the fill is doomed or
// already over.
func TestFillPublishMappedConsumesRef(t *testing.T) {
	content := bytes.Repeat([]byte("y"), 2048)
	f := writeTempFile(t, content)
	st := testStore(1, 1<<20)
	v := st.View(0)

	fill, started := v.JoinFill("/f", 2048, 1)
	if !started {
		t.Fatal("JoinFill did not start")
	}
	mr, _ := MapChunk(f, 0, 1024)
	hold := mr.Acquire()
	if !fill.PublishMapped(mr) {
		t.Fatal("PublishMapped(0) said stop")
	}
	if got := hold.Refs(); got != 2 { // observer + fill's pinned chunk
		t.Fatalf("refs after publish = %d, want 2", got)
	}

	// Invalidate mid-fill: the next publish must fail the fill and
	// release the incoming mapping rather than leaking it.
	v.InvalidateFile("/f", 2048, 1)
	mr2, _ := MapChunk(f, 1024, 1024)
	hold2 := mr2.Acquire()
	if fill.PublishMapped(mr2) {
		t.Fatal("doomed fill accepted a publish")
	}
	if got := hold2.Refs(); got != 1 {
		t.Fatalf("refs of rejected publish = %d, want 1 (observer only)", got)
	}
	if _, _, err := fill.ChunkAt(1, nil); err != ErrFillStale {
		t.Fatalf("err = %v, want ErrFillStale", err)
	}
	// Chunk 0 was detached by the invalidation and its last hold was
	// the fill's, dropped at failure: only the observer remains.
	if got := hold.Refs(); got != 1 {
		t.Fatalf("refs after doomed fill = %d, want 1", got)
	}
	hold.Release()
	hold2.Release()
}

// Zero-length chunks (empty files) cannot be mmapped; MapChunk must
// hand back an empty unmapped ref instead of an mmap error.
func TestMapChunkZeroLength(t *testing.T) {
	f := writeTempFile(t, nil)
	mr, err := MapChunk(f, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Mapped() || len(mr.Bytes()) != 0 {
		t.Fatalf("zero-length map = mapped=%v len=%d", mr.Mapped(), len(mr.Bytes()))
	}
	mr.Release()
}

// Truncating a file under a live mapping makes its pages fault; Touch
// must report that as ErrMapFault on the calling goroutine instead of
// letting SIGBUS kill the process, and leave the goroutine's fault
// mode as it found it.
func TestTouchRecoversTruncationFault(t *testing.T) {
	content := bytes.Repeat([]byte("z"), 4*os.Getpagesize())
	f := writeTempFile(t, content)
	mr, err := MapChunk(f, 0, int64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Release()
	if err := mr.Touch(); err != nil {
		t.Fatalf("Touch of an intact file: %v", err)
	}
	if err := os.Truncate(f.Name(), 0); err != nil {
		t.Fatal(err)
	}
	if err := mr.Touch(); err != ErrMapFault {
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
// does — each chunk a touched view of the parked mapping — then reads
// every chunk still resident back once, in order, as the fill's
// subscribers would.
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
		sub := m.Slice(fill.ChunkRange(i))
		if err := sub.Touch(); err != nil {
			t.Fatal(err)
		}
		fill.PublishMapped(sub)
	}
	for i := 0; i < st.NumChunks(int64(size)); i++ {
		if c := v.Lookup(ChunkKey{Path: path, Index: i}, 1); c != nil {
			v.Release(c)
		}
	}
}

// TestParkedMappingLifetime pins the lifetime rule: the mapping is made
// once per FileRef, survives the eviction (and zapping) of every chunk
// cut from it, serves the refill byte-exact, outlives the FileRef for
// as long as a chunk view holds it, and is unmapped exactly once.
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
	// Refill: the same mapping, sliced again; zapped pages fault back in.
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
	if got := ref.MapRefs(); got < 2 {
		t.Fatalf("mapping refs = %d with a chunk pinned, want the FileRef's and the chunk's", got)
	}

	// The path entry dies with a chunk still out: the descriptor closes,
	// the mapping stays until the chunk's view lets go.
	ref.Release()
	if ref.Refs() != 0 || stats.Unmaps.Load() != 0 {
		t.Fatalf("after the last FileRef release: refs=%d unmaps=%d, want 0 and 0", ref.Refs(), stats.Unmaps.Load())
	}
	if !bytes.Equal(c.Data, content[off:off+n]) {
		t.Fatal("pinned chunk unreadable after its FileRef died")
	}
	v.Release(c)
	v.InvalidateFile("/f", int64(size), 1)
	if got := stats.Unmaps.Load(); got != 1 {
		t.Fatalf("unmaps after the last view went = %d, want 1", got)
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
		t.Fatalf("Map(4000) of a file parked at 5000 bytes returned %d bytes", len(m.Bytes()))
	}
}

// TestEvictionZapsAdjacentViewsTogether: when the LRU victim's
// neighbours on the free list are the adjacent views of the same
// mapping, they leave in the same pass (one madvise for the file), and
// the zapped bytes read back intact through a fresh view of the parked
// mapping.
func TestEvictionZapsAdjacentViewsTogether(t *testing.T) {
	pg := os.Getpagesize()
	chunk := 4 * pg
	refA, contentA, _ := mappedFile(t, 3*chunk)
	refB, _, _ := mappedFile(t, chunk)
	defer refA.Release()
	defer refB.Release()
	// Room for A's three chunks exactly.
	st := testStore(1, int64(3*chunk), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments = int64(chunk), 1
	})
	v := st.View(0)
	publishFile(t, st, v, refA, "/a", 3*chunk)
	before := st.SharedStats().Chunks.Evictions
	publishFile(t, st, v, refB, "/b", chunk) // one chunk over: A's chunk 0 is the victim
	if got := st.SharedStats().Chunks.Evictions - before; got != 3 {
		t.Fatalf("%d chunks evicted by one insert, want /a's three adjacent views together", got)
	}
	m, err := refA.Map(int64(3 * chunk))
	if err != nil {
		t.Fatal(err)
	}
	view := m.Slice(int64(chunk), int64(chunk))
	defer view.Release()
	if !bytes.Equal(view.Bytes(), contentA[chunk:2*chunk]) {
		t.Fatal("a zapped chunk's pages read back different bytes")
	}
}

// TestZapRunMerges checks the coalescing itself: adjacent views of one
// mapping extend the run in either direction, anything else starts a
// new one.
func TestZapRunMerges(t *testing.T) {
	pg := os.Getpagesize()
	ref, _, _ := mappedFile(t, 8*pg)
	other, _, _ := mappedFile(t, 8*pg)
	defer ref.Release()
	defer other.Release()
	m, _ := ref.Map(int64(8 * pg))
	o, _ := other.Map(int64(8 * pg))
	var z zapRun
	z.add(m.Slice(int64(2*pg), int64(pg)))
	z.add(m.Slice(int64(3*pg), int64(pg))) // after
	z.add(m.Slice(int64(pg), int64(pg)))   // before
	if z.lo != pg || z.hi != 4*pg {
		t.Fatalf("run covers [%d,%d), want [%d,%d)", z.lo, z.hi, pg, 4*pg)
	}
	gap := m.Slice(int64(6*pg), int64(pg))
	if z.extends(gap) {
		t.Fatal("a view with a gap before it extended the run")
	}
	gap.Release()
	z.add(o.Slice(int64(4*pg), int64(pg))) // same offsets, another mapping
	if z.lo != 4*pg || z.hi != 5*pg || z.ref.root() != o.root() {
		t.Fatal("a view of another mapping did not start a new run")
	}
	z.flush()
	if got := ref.MapRefs(); got != 1 {
		t.Fatalf("mapping refs after flush = %d, want only the FileRef's", got)
	}
}
