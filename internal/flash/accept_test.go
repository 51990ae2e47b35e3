package flash

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves a one-file docroot on a fresh listener and returns
// the server, its address and a channel that receives Serve's result.
func startServer(t *testing.T) (*Server, string, <-chan error) {
	t.Helper()
	root := t.TempDir()
	mustWrite(t, root, "hello.txt", "hello, world\n")
	s, err := New(Config{DocRoot: root, EventLoops: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String(), served
}

// waitGoroutines waits until at most n goroutines are left: one that
// has signalled its exit may still be unwinding when the waiter wakes.
func waitGoroutines(t *testing.T, what string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines, want at most %d\n%s",
				what, runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAcceptCloseRace: connections arrive while Close runs. Close
// counts every connection the acceptor admitted before it began — the
// count is taken under the registry lock Close sets closed under — so
// no connection goroutine outlives it, parked or serving, and none
// posts its end to a stopped loop. Twenty rounds; -race also reports an
// admission counted outside that lock when a round's timing meets it.
func TestAcceptCloseRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		s, addr, served := startServer(t)
		var stop atomic.Bool
		var dialers sync.WaitGroup
		for i := 0; i < 4; i++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for !stop.Load() {
					nc, err := net.DialTimeout("tcp", addr, time.Second)
					if err != nil {
						return // the listener is closed
					}
					nc.Write([]byte("GET /hello.txt HTTP/1.0\r\n\r\n"))
					nc.Close()
				}
			}()
		}
		waitFor(t, "connections to arrive", func() bool { return s.Stats().Accepted >= 8 })
		s.Close()
		if err := <-served; err != ErrServerClosed {
			t.Fatalf("round %d: Serve returned %v, want ErrServerClosed", round, err)
		}
		stop.Store(true)
		dialers.Wait()
		waitGoroutines(t, "after Close", baseline)
	}
}

// TestAcceptParkedGoroutines: a connection goroutine whose connection
// ends parks for the next one, up to maxParkedConnGoroutines. After a
// burst of more connections than that closes, exactly the cap is
// parked and the rest have exited; a new connection is served by a
// parked goroutine without starting one; Close ends them all.
func TestAcceptParkedGoroutines(t *testing.T) {
	const burst = 200
	if burst <= maxParkedConnGoroutines {
		t.Fatalf("burst of %d does not pass the cap of %d", burst, maxParkedConnGoroutines)
	}
	baseline := runtime.NumGoroutine()
	s, addr, served := startServer(t)
	idle := runtime.NumGoroutine()

	conns := make([]net.Conn, burst)
	for i := range conns {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		conns[i] = nc
		getKeepAlive(t, nc, bufio.NewReader(nc), "/hello.txt")
	}
	if n := s.Active(); n != burst {
		t.Fatalf("%d connections open, want %d", n, burst)
	}
	for _, nc := range conns {
		nc.Close()
	}
	waitFor(t, "the burst to be unregistered", func() bool { return s.Active() == 0 })
	waitFor(t, "the cap to be parked", func() bool { return s.parked.Load() == maxParkedConnGoroutines })
	waitGoroutines(t, "after the burst", idle+maxParkedConnGoroutines)

	// A new connection takes a parked goroutine.
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	getKeepAlive(t, nc, bufio.NewReader(nc), "/hello.txt")
	if p := s.parked.Load(); p != maxParkedConnGoroutines-1 {
		t.Fatalf("%d goroutines parked while one serves, want %d", p, maxParkedConnGoroutines-1)
	}
	nc.Close()

	s.Close()
	if err := <-served; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	waitGoroutines(t, "after Close", baseline)
}
