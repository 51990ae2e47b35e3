package flash

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// newShardedServer starts a server with a fixed shard count over a
// docroot containing hello.txt. Handlers must be mounted before Serve,
// so they arrive as register funcs.
func newShardedServer(t *testing.T, loops int, register ...func(*Server)) (*Server, string) {
	t.Helper()
	root := t.TempDir()
	mustWrite(t, root, "hello.txt", "hello, world\n")
	s, err := New(Config{DocRoot: root, EventLoops: loops})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range register {
		reg(s)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

// oneRequest speaks one raw HTTP/1.0 exchange on its own connection.
func oneRequest(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /hello.txt HTTP/1.0\r\n\r\n")
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
}

func TestEventLoopsDefaultsToNumCPU(t *testing.T) {
	s, _ := newShardedServer(t, 0)
	if got := s.NumShards(); got != runtime.NumCPU() {
		t.Fatalf("NumShards = %d, want runtime.NumCPU() = %d", got, runtime.NumCPU())
	}
}

func TestAcceptDistributionAcrossShards(t *testing.T) {
	const loops, conns = 4, 16
	s, addr := newShardedServer(t, loops)
	for i := 0; i < conns; i++ {
		oneRequest(t, addr)
	}
	var total uint64
	for i, ss := range s.ShardStats() {
		if ss.Accepted == 0 {
			t.Errorf("shard %d accepted no connections", i)
		}
		total += ss.Accepted
	}
	if total != conns {
		t.Fatalf("sum of shard Accepted = %d, want %d", total, conns)
	}
	// Round-robin makes the spread exact, not merely nonzero.
	for i, ss := range s.ShardStats() {
		if ss.Accepted != conns/loops {
			t.Errorf("shard %d Accepted = %d, want %d", i, ss.Accepted, conns/loops)
		}
	}
}

func TestPerShardCacheIsolation(t *testing.T) {
	const loops = 2
	s, addr := newShardedServer(t, loops)
	// One connection per shard, all requesting the same file: each
	// shard must resolve it through its own pathname cache (a miss and
	// an insert apiece) — nothing is shared across shards.
	for i := 0; i < loops; i++ {
		oneRequest(t, addr)
	}
	for i, ss := range s.ShardStats() {
		if ss.PathCache.Inserts != 1 {
			t.Errorf("shard %d PathCache.Inserts = %d, want 1 (private cache)",
				i, ss.PathCache.Inserts)
		}
		if ss.PathCache.Hits != 0 {
			t.Errorf("shard %d PathCache.Hits = %d, want 0 (first touch)",
				i, ss.PathCache.Hits)
		}
	}
	// A second pass over both shards hits each shard's now-warm cache.
	for i := 0; i < loops; i++ {
		oneRequest(t, addr)
	}
	for i, ss := range s.ShardStats() {
		if ss.PathCache.Hits == 0 {
			t.Errorf("shard %d PathCache.Hits = 0 after warm pass", i)
		}
	}
}

func TestMergedStatsEqualSumOfShardStats(t *testing.T) {
	s, addr := newShardedServer(t, 4)
	base := "http://" + addr

	// Concurrent load across all shards.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for j := 0; j < 10; j++ {
				resp, err := client.Get(base + "/hello.txt")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce first: the two snapshots below are taken one after the
	// other, so they only agree once every response is counted and
	// every connection's close has reached its loop.
	merged := waitStats(t, s, "80 responses and no open conns", func(st Stats) bool {
		return st.Responses == 80 && st.OpenConns == 0 && st.Active == 0
	})
	var sum Stats
	for _, ss := range s.ShardStats() {
		sum = sum.Add(ss)
	}
	// Active is server-wide (connection registry), not a shard counter.
	sum.Active = merged.Active
	// The shared chunk tier and fill counters are store-wide state the
	// same way: merged folds the shared tier into MapCache on top of
	// the per-shard lookup counts.
	sum.MapCache = sum.MapCache.Add(merged.SharedChunks)
	sum.SharedChunks = merged.SharedChunks
	sum.Fills = merged.Fills
	// So are the mmap/munmap and zap counts: FileRefs belong to no shard.
	sum.FileMaps, sum.FileUnmaps = merged.FileMaps, merged.FileUnmaps
	sum.ZapSpans, sum.ZapCalls = merged.ZapSpans, merged.ZapCalls
	if merged != sum {
		t.Fatalf("merged stats != sum of shard stats\nmerged: %+v\nsum:    %+v", merged, sum)
	}
}

func TestKeepAliveStaysOnOneShard(t *testing.T) {
	s, addr := newShardedServer(t, 4)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 6; i++ {
		fmt.Fprintf(conn, "GET /hello.txt HTTP/1.1\r\nHost: t\r\n\r\n")
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// All six responses came from the single shard that accepted the
	// connection; its private caches served every repeat request.
	waitStats(t, s, "6 responses", func(st Stats) bool { return st.Responses == 6 })
	var serving int
	for _, ss := range s.ShardStats() {
		if ss.Responses > 0 {
			serving++
			if ss.Responses != 6 {
				t.Fatalf("serving shard Responses = %d, want 6", ss.Responses)
			}
			if ss.PathCache.Hits < 4 {
				t.Fatalf("serving shard PathCache.Hits = %d, want >= 4", ss.PathCache.Hits)
			}
		}
	}
	if serving != 1 {
		t.Fatalf("responses spread over %d shards, want 1 (connection affinity)", serving)
	}
}

func TestDynamicHandlerRegisteredOnEveryShard(t *testing.T) {
	const loops = 4
	s, addr := newShardedServer(t, loops, func(s *Server) {
		s.HandleFunc("GET", "/api/", func(w ResponseWriter, r *Request) {
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, "ok")
		})
	})
	// One connection per shard; round-robin guarantees every shard sees
	// one, so the handler must be registered on all of them.
	for i := 0; i < loops; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /api/x HTTP/1.0\r\n\r\n")
		reply, _ := io.ReadAll(conn)
		conn.Close()
		if !strings.Contains(string(reply), "ok") {
			t.Fatalf("connection %d: dynamic reply = %.120q", i, reply)
		}
	}
	for i, ss := range s.ShardStats() {
		if ss.DynamicCalls != 1 {
			t.Errorf("shard %d DynamicCalls = %d, want 1", i, ss.DynamicCalls)
		}
	}
}
