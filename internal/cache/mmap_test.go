//go:build linux

package cache

import (
	"bytes"
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

// A mapped chunk's end-to-end lifecycle: map, insert, look up
// the real file bytes, and verify the mapping's reference count at
// every stage — the cache chunk and its L1 replica each hold one, and
// invalidation drops both without touching the observer's hold.
func TestMmapChunkLifecycleRefcounts(t *testing.T) {
	content := bytes.Repeat([]byte("mmap-engine!"), 200) // > 1 chunk
	f := writeTempFile(t, content)
	st := testStore(1, 1<<20)
	v := st.View(0)

	off, n := st.ChunkRange(int64(len(content)), 0)
	mr, err := MapChunk(f, off, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mr.Bytes(), content[off:off+n]) {
		t.Fatal("mapped bytes differ from file bytes")
	}
	hold := mr.Acquire() // observer's hold, so Refs stays readable

	key := ChunkKey{Path: "/f", Index: 0}
	c := v.InsertMapped(key, mr, n, 7) // chunk adopts the mapped ref
	if !bytes.Equal(c.Data, content[off:off+n]) {
		t.Fatal("chunk bytes differ from file bytes")
	}
	// Ours + the L1 replica's (InsertMapped replicates; the segment
	// copy and the replica share the mapping with separate holds).
	if got := hold.Refs(); got != 3 {
		t.Fatalf("refs after insert = %d, want 3 (observer + segment + L1)", got)
	}
	v.Release(c)

	// A warm lookup serves the same mapping, no new references.
	c2 := v.Lookup(key, 7)
	if c2 == nil || &c2.Data[0] != &c.Data[0] {
		t.Fatal("lookup did not return the shared mapped bytes")
	}
	v.Release(c2)
	if got := hold.Refs(); got != 3 {
		t.Fatalf("refs after warm lookup = %d, want 3", got)
	}

	// Invalidation drops the segment chunk and the L1 replica: both
	// holds go, only the observer's remains — and the pages stay
	// mapped until it releases.
	v.InvalidateFile("/f", 7, st.NumChunks(int64(len(content))))
	if got := hold.Refs(); got != 1 {
		t.Fatalf("refs after invalidate = %d, want 1 (observer only)", got)
	}
	if !hold.Mapped() {
		t.Fatal("region unmapped before the final release")
	}
	hold.Release()
}

// A mapping may not be unmapped while any holder still references its
// bytes: evicting the segment copy under budget pressure must leave
// an L1 replica's (and a pinned reader's) bytes valid.
func TestMmapEvictionKeepsSharedMappingAlive(t *testing.T) {
	content := bytes.Repeat([]byte("x"), 1024)
	f := writeTempFile(t, content)
	// One-chunk budget: every insert evicts the previous chunk.
	st := testStore(1, 1024)
	v := st.View(0)

	mr, err := MapChunk(f, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	hold := mr.Acquire()
	defer hold.Release()
	c := v.InsertMapped(ChunkKey{Path: "/a", Index: 0}, mr, 1024, 1)
	// Reader keeps its pin on /a while /b storms the budget.
	for i := 0; i < 4; i++ {
		f2 := writeTempFile(t, content)
		mr2, err := MapChunk(f2, 0, 1024)
		if err != nil {
			t.Fatal(err)
		}
		v.Release(v.InsertMapped(ChunkKey{Path: "/b", Index: i}, mr2, 1024, 1))
	}
	// The pinned chunk's bytes must still be readable (on Linux this
	// faults if the region were unmapped).
	if c.Data[0] != 'x' || c.Data[1023] != 'x' {
		t.Fatal("pinned mapped chunk corrupted by eviction pressure")
	}
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
	v.InvalidateFile("/f", 1, 2)
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
func mappedFile(t *testing.T, n int) (*FileRef, []byte, *MapStats) {
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
	stats := new(MapStats)
	return NewFileRef(f, stats), content, stats
}

// publishFile maps ref's file and inserts its chunks, unpinned, the way
// a fill does: each chunk a touched view of the parked mapping.
func publishFile(t *testing.T, st *ShardedStore, v View, ref *FileRef, path string, size int) {
	t.Helper()
	m, err := ref.Map(int64(size))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.NumChunks(int64(size)); i++ {
		off, n := st.ChunkRange(int64(size), i)
		sub := m.Slice(off, n)
		if err := sub.Touch(); err != nil {
			t.Fatal(err)
		}
		v.Release(v.InsertMapped(ChunkKey{Path: path, Index: i}, sub, n, 1))
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
	// One segment, a budget of two chunks, no L1 retention: publishing
	// the file's four chunks evicts its first ones again.
	st := testStore(1, int64(2*4*pg), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments, o.L1Bytes = int64(4*pg), 1, -1
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
	v.InvalidateFile("/f", 1, st.NumChunks(int64(size)))
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
// a replica that still holds the zapped bytes reads them back intact.
func TestEvictionZapsAdjacentViewsTogether(t *testing.T) {
	pg := os.Getpagesize()
	chunk := 4 * pg
	refA, contentA, _ := mappedFile(t, 3*chunk)
	refB, _, _ := mappedFile(t, chunk)
	defer refA.Release()
	defer refB.Release()
	// Room for A's three chunks exactly; an L1 big enough to keep a
	// replica of everything.
	st := testStore(1, int64(3*chunk), func(o *StoreOptions) {
		o.ChunkBytes, o.Segments, o.L1Bytes = int64(chunk), 1, int64(8*chunk)
	})
	v := st.View(0)
	publishFile(t, st, v, refA, "/a", 3*chunk)
	rep := v.Lookup(ChunkKey{Path: "/a", Index: 1}, 1) // the L1 replica of A's middle chunk
	if rep == nil {
		t.Fatal("/a chunk 1 not resident")
	}
	before := st.SharedStats().Chunks.Evictions
	publishFile(t, st, v, refB, "/b", chunk) // one chunk over: A's chunk 0 is the victim
	if got := st.SharedStats().Chunks.Evictions - before; got != 3 {
		t.Fatalf("%d chunks evicted by one insert, want /a's three adjacent views together", got)
	}
	if !bytes.Equal(rep.Data, contentA[chunk:2*chunk]) {
		t.Fatal("replica of a zapped chunk reads different bytes")
	}
	v.Release(rep)
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
