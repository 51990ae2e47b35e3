//go:build linux

package flash

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestWindowChunksNeitherMapNorZap: a server that serves only files of
// several chunks, through a budget they overflow three times, evicts
// chunk after chunk yet queues no zap — a window has no pages of the
// process's to drop — and the process's resident file pages do not grow
// with the bytes it sends: it never maps them in. (Each file is still
// mapped once, for the helper's mincore residency check, which faults
// nothing in.)
func TestWindowChunksNeitherMapNorZap(t *testing.T) {
	const (
		budget   = 2 << 20
		fileSize = 192 << 10 // three chunks
		files    = 3 * budget / fileSize
	)
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.RevalidateInterval = -1
		cfg.Cache.MapBytes = budget
	})
	for i := 0; i < files; i++ {
		mustWrite(t, s.cfg.DocRoot, fmt.Sprintf("win/%03d.bin", i), string(pattern(fileSize+i)))
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	br := bufio.NewReader(conn)
	fetch := func(i int) {
		fmt.Fprintf(conn, "GET /win/%03d.bin HTTP/1.1\r\nHost: t\r\n\r\n", i)
		resp, err := readResponse(br, "GET")
		if err != nil || resp.status != 200 || len(resp.body) != fileSize+i {
			t.Fatalf("file %d: %v err=%v", i, resp, err)
		}
	}
	// Two files warm every code path; growth is measured over the rest.
	fetch(0)
	fetch(1)
	before, rss := s.Stats(), rssFile(t)
	for i := 2; i < files; i++ {
		fetch(i)
	}
	grew := rssFile(t) - rss
	t.Logf("RssFile grew by %d KiB over %d KiB sent", grew>>10, (files-2)*fileSize>>10)
	after := s.Stats()
	if ev := after.SharedChunks.Evictions - before.SharedChunks.Evictions; ev == 0 {
		t.Fatalf("no evictions while %d KiB went through a %d KiB budget", (files-2)*fileSize>>10, budget>>10)
	}
	if z := after.ZapSpans - before.ZapSpans; z != 0 {
		t.Fatalf("%d zap spans queued for window chunks, want 0", z)
	}
	if sf := after.BytesSendfile - before.BytesSendfile; sf < int64((files-2)*fileSize) {
		t.Fatalf("sendfile moved %d bytes of %d", sf, (files-2)*fileSize)
	}
	// Slack for the test binary's own text faulting in. Reading the
	// chunks through a mapping, as the bytes of a one-chunk file are,
	// grows it by more than 1 MiB here.
	const allowed = 256 << 10
	if grew > allowed {
		t.Fatalf("RssFile grew by %d KiB while %d KiB of window chunks were sent, want at most %d KiB",
			grew>>10, (files-2)*fileSize>>10, allowed>>10)
	}
}

// TestRevalidateOpensNothing: revalidating an entry whose file is
// unchanged costs one stat on a helper — inotify sees the file neither
// opened nor closed — while a file changed since is served under its
// new identity.
func TestRevalidateOpensNothing(t *testing.T) {
	clock := new(advancingClock)
	s, base := newTestServer(t, func(cfg *Config) {
		cfg.EventLoops = 1
		cfg.RevalidateInterval = 2 * time.Second
		clock.install(cfg)
	})
	path := filepath.Join(s.cfg.DocRoot, "rv.txt")
	mustWrite(t, s.cfg.DocRoot, "rv.txt", "generation one\n")
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, base+"/rv.txt")
	if resp.StatusCode != 200 || string(body) != "generation one\n" {
		t.Fatalf("cold GET: status %d body %q", resp.StatusCode, body)
	}
	etag := resp.Header.Get("ETag")

	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skip(err)
	}
	defer syscall.Close(fd)
	if _, err := syscall.InotifyAddWatch(fd, path, syscall.IN_OPEN|syscall.IN_CLOSE); err != nil {
		t.Skip(err)
	}

	clock.advance(3 * time.Second) // past the revalidation interval
	jobs := s.Stats().HelperJobs
	if resp, body := get(t, base+"/rv.txt"); resp.StatusCode != 200 || string(body) != "generation one\n" {
		t.Fatalf("revalidated GET: status %d body %q", resp.StatusCode, body)
	}
	if n := s.Stats().HelperJobs - jobs; n != 1 {
		t.Fatalf("%d helper jobs for one revalidation, want 1", n)
	}
	var ev [4096]byte
	if n, err := syscall.Read(fd, ev[:]); err != syscall.EAGAIN {
		t.Fatalf("revalidating an unchanged file opened or closed it: %d bytes of inotify events, %v", n, err)
	}

	mustWrite(t, s.cfg.DocRoot, "rv.txt", "generation two, longer\n")
	clock.advance(3 * time.Second)
	resp, body = get(t, base+"/rv.txt")
	if resp.StatusCode != 200 || string(body) != "generation two, longer\n" {
		t.Fatalf("changed file: status %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatalf("changed file served under the old ETag %s", etag)
	}
}
