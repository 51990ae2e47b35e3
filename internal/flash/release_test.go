package flash

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
)

// TestResponseEndReleases runs every response shape to its end, once
// completed and once cut off by a client reset in the middle, and then
// checks that the end released everything the response held: no
// descriptor reference, chunk pin or mapping view outlives it
// (waitReleased), and a handler's goroutine has returned. The shapes
// are the ones that end differently: fixed buffers (a HEAD and a 304,
// corked whole), a chunk walk of one run (corked whole), a walk of
// several runs past gatherCap (each written at once, its flush report
// pulling the next), a sendfile window (one item written at once) and a
// stream a handler's goroutine writes itself.
//
// The long shapes are 8 MiB, past what the socket buffers hold (Linux
// caps a send buffer at 4 MiB by default, and the client shrinks its
// receive buffer), so the reset meets a response that is still being
// written: its write fails, and the server counts the error. Either
// way the byte counters agree: BytesSent is BytesSendfile plus
// BytesCopied.
func TestResponseEndReleases(t *testing.T) {
	oneRun := pattern(100 << 10)
	long := pattern(8 << 20) // sixteen gatherCap runs
	for _, tc := range []struct {
		name      string
		threshold int64 // Config.SendfileThreshold
		cut       bool  // a reset cuts the response short
		// requests are sent pipelined in one write; want holds the
		// status and body of each response, in order.
		requests []string
		want     []rawResponse
	}{
		{"fixed", -1, false, []string{"HEAD /one.bin", "GET /one.bin\r\nIf-None-Match: *"},
			[]rawResponse{{status: 200}, {status: 304}}},
		{"one-run", -1, false, []string{"GET /one.bin"}, []rawResponse{{status: 200, body: oneRun}}},
		{"multi-run", -1, true, []string{"GET /long.bin"}, []rawResponse{{status: 200, body: long}}},
		{"sendfile", 1, true, []string{"GET /long.bin"}, []rawResponse{{status: 200, body: long}}},
		{"stream", -1, true, []string{"GET /stream"}, []rawResponse{{status: 200, body: long}}},
	} {
		for _, reset := range []bool{false, true} {
			name := tc.name + "/complete"
			if reset {
				name = tc.name + "/reset"
			}
			t.Run(name, func(t *testing.T) {
				var started, returned atomic.Int64
				s, base := newTestServer(t, func(c *Config) {
					c.EventLoops = 1
					c.SendfileThreshold = tc.threshold
				}, func(s *Server) {
					s.HandleFunc("GET", "/stream", func(w ResponseWriter, _ *Request) {
						started.Add(1)
						defer returned.Add(1)
						for p := long; len(p) > 0; p = p[dynBufSize:] {
							if _, err := w.Write(p[:dynBufSize]); err != nil {
								return
							}
						}
					})
				})
				mustWrite(t, s.cfg.DocRoot, "one.bin", string(oneRun))
				mustWrite(t, s.cfg.DocRoot, "long.bin", string(long))
				// Warm: a one-run response is a walk whose chunks are all
				// there.
				for _, path := range []string{"/one.bin", "/long.bin"} {
					if body, err := rawGet(strings.TrimPrefix(base, "http://"), path); err != nil || len(body) == 0 {
						t.Fatalf("warm-up GET %s: %d bytes, %v", path, len(body), err)
					}
				}

				var wire strings.Builder
				for _, r := range tc.requests {
					method, rest, _ := strings.Cut(r, " ")
					path, hdr, _ := strings.Cut(rest, "\r\n")
					wire.WriteString(method + " " + path + " HTTP/1.1\r\nHost: t\r\n")
					if hdr != "" {
						wire.WriteString(hdr + "\r\n")
					}
					wire.WriteString("\r\n")
				}
				conn := dialRaw(t, base)
				if reset {
					conn.(*net.TCPConn).SetReadBuffer(16 << 10)
				}
				if _, err := io.WriteString(conn, wire.String()); err != nil {
					t.Fatal(err)
				}
				br := bufio.NewReader(conn)
				if reset {
					// One byte proves the response started; then the client
					// goes away with a reset instead of a FIN.
					if _, err := br.ReadByte(); err != nil {
						t.Fatal(err)
					}
					conn.(*net.TCPConn).SetLinger(0)
					conn.Close()
				} else {
					for i, want := range tc.want {
						method, _, _ := strings.Cut(tc.requests[i], " ")
						resp, err := readResponse(br, method)
						if err != nil {
							t.Fatalf("response %d: %v", i, err)
						}
						if resp.status != want.status || !bytes.Equal(resp.body, want.body) {
							t.Fatalf("response %d: status %d with %d body bytes, want %d with %d",
								i, resp.status, len(resp.body), want.status, len(want.body))
						}
					}
				}

				waitFor(t, "the handler goroutine to return", func() bool {
					return returned.Load() == started.Load()
				})
				waitReleased(t, s)
				st := s.Stats()
				if reset && tc.cut && st.Errors == 0 {
					t.Fatal("the reset did not cut the response short (no failed write counted)")
				}
				if st.BytesSent != st.BytesSendfile+st.BytesCopied {
					t.Fatalf("BytesSent %d != BytesSendfile %d + BytesCopied %d",
						st.BytesSent, st.BytesSendfile, st.BytesCopied)
				}
			})
		}
	}
}
