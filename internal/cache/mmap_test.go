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
	mr, err := MapChunk(f, off, n, false)
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

	mr, err := MapChunk(f, 0, 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	hold := mr.Acquire()
	defer hold.Release()
	c := v.InsertMapped(ChunkKey{Path: "/a", Index: 0}, mr, 1024, 1)
	// Reader keeps its pin on /a while /b storms the budget.
	for i := 0; i < 4; i++ {
		f2 := writeTempFile(t, content)
		mr2, err := MapChunk(f2, 0, 1024, false)
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
	mr, _ := MapChunk(f, 0, 1024, true)
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
	mr2, _ := MapChunk(f, 1024, 1024, true)
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
	mr, err := MapChunk(f, 0, 0, false)
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
	mr, err := MapChunk(f, 0, int64(len(content)), true)
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
