package flash

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// countOpenFds reads the process's descriptor count from /proc.
func countOpenFds(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestOverloadFdExhaustionRecovery proves the acceptor survives real
// descriptor exhaustion: RLIMIT_NOFILE drops to just above the current
// usage, the slack burns away on /dev/null opens, and while the
// process sits at the limit the established connection keeps serving
// (the warm path needs no new descriptors) and the acceptor pends new
// arrivals through the reserve-fd dance instead of crashing or
// spinning. Freeing the descriptors restores full service.
func TestOverloadFdExhaustionRecovery(t *testing.T) {
	forEachConnEngine(t, func(t *testing.T) {
		var orig syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &orig); err != nil {
			t.Skipf("getrlimit: %v", err)
		}
		t.Cleanup(func() { syscall.Setrlimit(syscall.RLIMIT_NOFILE, &orig) })

		s, base := newTestServer(t, nil)
		addr := baseAddr(base)
		// One established keep-alive conn, warmed so later exchanges
		// stay on the in-memory path.
		ka, br := dialKeepAlive(t, addr)

		// Cap the process just above its current usage, then burn the
		// slack. Everything below must run with zero free descriptors.
		lowered := orig
		lowered.Cur = uint64(countOpenFds(t)) + 24
		if lowered.Cur > orig.Cur {
			lowered.Cur = orig.Cur
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lowered); err != nil {
			t.Skipf("setrlimit: %v", err)
		}
		var burned []*os.File
		release := func() {
			for _, f := range burned {
				f.Close()
			}
			burned = nil
			syscall.Setrlimit(syscall.RLIMIT_NOFILE, &orig)
		}
		t.Cleanup(release)
		var spare *os.File
		for {
			f, err := os.Open(os.DevNull)
			if err != nil {
				break
			}
			burned = append(burned, f)
		}
		if len(burned) == 0 {
			t.Skip("could not reach the descriptor limit")
		}
		// Keep one descriptor aside for the client side of the victim
		// dial: the test shares the process limit with the server.
		spare, burned = burned[len(burned)-1], burned[:len(burned)-1]

		// The established connection rides out the exhaustion: a warm
		// keep-alive exchange needs no new descriptors.
		for i := 0; i < 3; i++ {
			if resp := getKeepAlive(t, ka, br, "/hello.txt"); resp.status != 200 {
				t.Fatalf("established conn under exhaustion: status %d", resp.status)
			}
		}

		// A new arrival cannot be admitted — the acceptor's recovery
		// resets it via the reserve descriptor. The dial itself may also
		// fail (client and server share the exhausted limit); either
		// way the acceptor must register the pressure. The recovery's
		// reap pass may sacrifice the parked keep-alive conn for its
		// descriptor (that is the designed LRU reaping), so from here on
		// only fresh conns are asserted.
		spare.Close()
		if nc, err := net.Dial("tcp", addr); err == nil {
			nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			io.Copy(io.Discard, nc)
			nc.Close()
		}
		deadline := time.Now().Add(2 * time.Second)
		for s.Stats().FdPressure == 0 {
			if time.Now().After(deadline) {
				t.Fatal("FdPressure = 0: acceptor never hit the limit")
			}
			time.Sleep(10 * time.Millisecond)
		}

		// Descriptors free, limit restored: new conns serve again.
		release()
		client := newRawProbe(t, addr)
		deadline = time.Now().Add(3 * time.Second)
		for {
			if client() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no recovery after descriptors freed")
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// newRawProbe returns a closure performing one full raw HTTP exchange,
// reporting whether it answered 200.
func newRawProbe(t *testing.T, addr string) func() bool {
	t.Helper()
	return func() bool {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		defer nc.Close()
		fmt.Fprintf(nc, "GET /hello.txt HTTP/1.1\r\nHost: x\r\n\r\n")
		nc.SetReadDeadline(time.Now().Add(time.Second))
		resp, err := readResponse(bufio.NewReader(nc), "GET")
		return err == nil && resp.status == 200
	}
}
