package flash

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkShardScaling measures cached-workload throughput as the
// shard count grows from the paper's single event loop to one per CPU.
// Every request is served from the per-shard caches (pathname, header,
// and chunk all hit after the first touch), so the benchmark isolates
// exactly the scaling the single-loop design forfeits on multi-core
// hardware: with one shard every response is serialized through one
// goroutine; with N shards the loops run in parallel and throughput
// should rise monotonically through at least 4 shards.
func BenchmarkShardScaling(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, loops := range counts {
		b.Run(fmt.Sprintf("loops=%d", loops), func(b *testing.B) {
			benchCachedWorkload(b, loops)
		})
	}
}

func benchCachedWorkload(b *testing.B, loops int) {
	const fileSize = 1024
	root := b.TempDir()
	if err := os.WriteFile(filepath.Join(root, "f.html"),
		bytes.Repeat([]byte("y"), fileSize), 0o644); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{DocRoot: root, EventLoops: loops})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	addr := l.Addr().String()

	// Several keep-alive connections per CPU so round-robin populates
	// every shard even at low parallelism.
	b.SetParallelism(4)
	b.SetBytes(fileSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReaderSize(conn, 8<<10)
		req := []byte("GET /f.html HTTP/1.1\r\nHost: bench\r\n\r\n")
		for pb.Next() {
			if _, err := conn.Write(req); err != nil {
				b.Error(err)
				return
			}
			if err := discardResponse(br); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// discardResponse consumes one keep-alive response: the header block,
// then exactly Content-Length body bytes.
func discardResponse(br *bufio.Reader) error {
	length := int64(-1)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		if line == "\r\n" || line == "\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return err
			}
			length = n
		}
	}
	if length < 0 {
		return fmt.Errorf("response without Content-Length")
	}
	_, err := io.CopyN(io.Discard, br, length)
	return err
}

// BenchmarkLargeFile measures large-file throughput over loopback once
// per static transport: the zero-copy sendfile path (threshold forced
// to 1) against the chunk-cache copy path (threshold disabled). With
// b.SetBytes the go tool reports MB/s, which is the number the
// tentpole moves — large-file workloads are byte-bound. On platforms
// without sendfile the "sendfile" variant exercises the portable
// pread+write fallback.
func BenchmarkLargeFile(b *testing.B) {
	for _, tc := range []struct {
		name      string
		threshold int64
	}{
		{"sendfile", 1},
		{"copy", -1},
	} {
		b.Run("transport="+tc.name, func(b *testing.B) {
			benchLargeFile(b, tc.threshold)
		})
	}
}

func benchLargeFile(b *testing.B, threshold int64) {
	const fileSize = 4 << 20 // well past any threshold, 64 chunks
	root := b.TempDir()
	if err := os.WriteFile(filepath.Join(root, "large.bin"),
		bytes.Repeat([]byte("z"), fileSize), 0o644); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		DocRoot:           root,
		SendfileThreshold: threshold,
		// One shard with several concurrent clients makes the server
		// side the bottleneck — the point is the transport's cost, not
		// the bench client's read loop.
		EventLoops: 1,
		// The copy path must serve from warm chunks, not re-read disk:
		// the comparison is userspace copying vs kernel sendfile.
		Cache: CacheConfig{MapBytes: 2 * fileSize},
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	addr := l.Addr().String()

	b.SetParallelism(4)
	b.SetBytes(fileSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		br := bufio.NewReaderSize(conn, 256<<10)
		req := []byte("GET /large.bin HTTP/1.1\r\nHost: bench\r\n\r\n")
		for pb.Next() {
			if _, err := conn.Write(req); err != nil {
				b.Error(err)
				return
			}
			if err := discardResponse(br); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
