package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The load generator. It imports nothing from repro/internal: a faster
// httpmsg can never speed up the client.
//
// One goroutine drives every connection of a load run from a busy-poll
// loop: send what is due, try a non-blocking read on each connection
// with requests in flight, yield, repeat. It never sleeps and never
// blocks in a read, on purpose. This benchmark's host is a small
// virtual machine, where a halted CPU takes 30–500 µs to answer a timer
// or a packet and a timer that expires while its CPU is busy can wait
// for the next 10 ms tick; generators built on timers and blocking
// reads (two were tried: Go's netpoller with a nanosleep pacer thread,
// and a blocking thread per connection) put that into every latency
// they reported — median 160–230 µs from run to run for a 75 µs round
// trip, p99 anywhere from 1 to 20 ms. A client CPU that never idles has
// none of it: arrivals are sent within a few µs of when they are due,
// and what is left in the numbers is the server and its own CPU's
// wake-ups.

// clock reads monotonic nanoseconds since the load run began.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// failKind classifies a failed request.
type failKind int

const (
	passed      failKind = iota
	failRefused          // connect or write error, or connection lost
	failTimeout          // no complete response before the drain deadline
	failStatus           // wrong status code
	failLength           // wrong Content-Length, or bytes after the body
	failBody             // body bytes differ from the generated content
	numFailKinds
)

var failNames = [numFailKinds]string{"ok", "refused", "timeout", "status", "length", "body"}

// drainTimeout bounds how long requests sent inside the window are
// awaited after it closes; what is still missing then timed out.
const drainTimeout = 2 * time.Second

// pending is one request on the wire. All times are clock nanoseconds.
type pending struct {
	req       *request
	intended  int64 // when it was due (open loop) or written (closed loop)
	start     int64 // when the generator began acting on it
	connected int64 // churn only: connect returned
	written   int64 // write returned
}

// reqSpan is the traced record of one request: the root span
// [intended, end] and the boundaries of its connect / write / ttfb /
// body children.
type reqSpan struct {
	pending
	ttfb int64 // first response byte read
	end  int64
	fail failKind
}

// winCount is what completed inside one sub-window.
type winCount struct {
	n     int64
	bytes int64 // validated body bytes
}

// loadSpec describes one load run against addr.
type loadSpec struct {
	addr    string
	site    *site
	conns   int
	rate    float64       // > 0: open loop at this many arrivals/s; else closed loop
	depth   int           // closed loop: in flight per connection
	lead    time.Duration // unrecorded ramp before the window opens
	window  time.Duration // measured window
	subwins int
	traced  bool
	touch   bool   // visit every object once (closed loop), learn ETags, then stop
	yield   bool   // other work of the driver needs the generator's CPU: yield on idle polls
	awake   []int  // CPUs (flashd's) to keep from halting during the run
	limitNs int64  // latency limit for overLimit; 0 = none
	atOpen  func() // called when the window opens
	atClose func() // called when the window closes
}

// loadResult is the outcome of one load run.
type loadResult struct {
	lat       samples // of validated requests due inside the window
	lag       samples // open loop: actual minus intended start
	win       []winCount
	attempted int64
	failed    int64
	overLimit int64
	fails     [numFailKinds]int64
	spans     []reqSpan
	polls     int64         // passes of the poll loop inside the window
	idlePolls int64         // of which found nothing to do
	clientCPU time.Duration // this process's user+system time over the window
	epoch     time.Time     // zero of every time in spans
}

// add appends the record of a load run that took place after r's: its
// samples keep their order behind r's (after is how long r's window
// was), its sub-windows follow r's.
func (r *loadResult) add(o *loadResult, after int64) {
	for i, at := range o.lat.at {
		r.lat.add(after+at, o.lat.ns[i])
	}
	for i, at := range o.lag.at {
		r.lag.add(after+at, o.lag.ns[i])
	}
	r.win = append(r.win, o.win...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.overLimit += o.overLimit
	for k := range o.fails {
		r.fails[k] += o.fails[k]
	}
	r.polls += o.polls
	r.idlePolls += o.idlePolls
	r.clientCPU += o.clientCPU
}

// gen is the state of one load run.
type gen struct {
	spec   loadSpec
	sa     syscall.SockaddrInet4
	clk    clock
	t0, t1 int64 // window bounds
	giveUp int64 // when what is still in flight has timed out
	loadResult
}

// subwin is the sub-window clock time t falls into; t is inside the window.
func (g *gen) subwin(t int64) int {
	return int((t - g.t0) * int64(g.spec.subwins) / (g.t1 - g.t0))
}

// done records one finished (or failed) request.
func (g *gen) done(p *pending, ttfb, end, body int64, fk failKind) {
	if p.intended >= g.t0 && p.intended < g.t1 {
		g.attempted++
		lat := end - p.intended
		if fk != passed {
			g.failed++
			g.fails[fk]++
			g.overLimit++ // a failure misses any latency limit
		} else {
			g.lat.add(p.intended, lat)
			if g.spec.limitNs > 0 && lat > g.spec.limitNs {
				g.overLimit++
			}
		}
		if g.spec.traced {
			g.spans = append(g.spans, reqSpan{pending: *p, ttfb: ttfb, end: end, fail: fk})
		}
	}
	if fk == passed && end >= g.t0 && end < g.t1 {
		w := &g.win[g.subwin(end)]
		w.n++
		w.bytes += body
	}
}

// started notes how late the generator began acting on an arrival.
func (g *gen) started(p *pending) {
	if g.spec.rate > 0 && p.intended >= g.t0 && p.intended < g.t1 {
		g.lag.add(p.intended, p.start-p.intended)
	}
}

// --- sockets ---

// sock is a blocking TCP socket that is only ever read with
// MSG_DONTWAIT: writes (a few hundred bytes) go straight into the send
// buffer, reads are polls.
type sock struct{ fd int }

var errWouldBlock = errors.New("bench: no bytes yet")

func (g *gen) dial(noDelay bool) (sock, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return sock{}, fmt.Errorf("socket: %w", err)
	}
	err = syscall.Connect(fd, &g.sa)
	for err == syscall.EINTR || err == syscall.EALREADY {
		// Interrupted: the connect goes on in the kernel; asking again
		// reports EALREADY until it ends, then EISCONN.
		err = syscall.Connect(fd, &g.sa)
	}
	if err != nil && err != syscall.EISCONN {
		syscall.Close(fd)
		return sock{}, fmt.Errorf("connect %s: %w", g.spec.addr, err)
	}
	if noDelay {
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	}
	// A write can only block on a server that has stopped reading; it
	// must not hang the poll loop for good.
	tv := syscall.NsecToTimeval(int64(drainTimeout))
	syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv)
	return sock{fd}, nil
}

// The poll loop's reads and writes go through RawSyscall: they do not
// block (a read never, a write only on a server that stopped reading),
// and the scheduler's bookkeeping for calls that might — the P parked in
// a syscall state thousands of times a second, sysmon taking it away
// whenever it looks — cost a third of the client CPU in futex hand-offs
// and stalled the loop for milliseconds at a time.

func (s sock) write(b []byte) error {
	for len(b) > 0 {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, uintptr(s.fd), uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)))
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return e
		}
		b = b[n:]
	}
	return nil
}

// poll reads what has arrived into b: errWouldBlock when nothing has,
// n == 0 when the peer closed.
func (s sock) poll(b []byte) (int, error) {
	for {
		n, _, e := syscall.RawSyscall6(syscall.SYS_RECVFROM, uintptr(s.fd), uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			return int(n), nil
		case syscall.EINTR:
		case syscall.EAGAIN:
			return 0, errWouldBlock
		default:
			return 0, e
		}
	}
}

func (s sock) close() { syscall.Close(s.fd) }

// --- response parsing and validation ---

var (
	crlfcrlf       = []byte("\r\n\r\n")
	errHeadTooLong = errors.New("bench: response head exceeds the read buffer")
	errBadHead     = errors.New("bench: malformed response head")
	errNoLength    = errors.New("bench: response without Content-Length")
	errEOF         = errors.New("bench: connection closed by the server")
	errUnsolicited = errors.New("bench: response bytes with no request in flight")
)

// head is a parsed response head.
type head struct {
	status int
	clen   int64  // -1 when absent
	etag   []byte // view into the read buffer; copy to keep
}

// parseHead parses "HTTP/1.x NNN ...\r\n(header\r\n)*".
func parseHead(b []byte, h *head) error {
	if len(b) < 14 || !bytes.HasPrefix(b, []byte("HTTP/1.")) || b[8] != ' ' {
		return errBadHead
	}
	h.status, h.clen, h.etag = 0, -1, nil
	for _, c := range b[9:12] {
		if c < '0' || c > '9' {
			return errBadHead
		}
		h.status = h.status*10 + int(c-'0')
	}
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return nil
		}
		b = b[i+1:]
		if v, ok := headerValue(b, "content-length:"); ok {
			h.clen = 0
			for _, c := range v {
				if c < '0' || c > '9' {
					return errBadHead
				}
				h.clen = h.clen*10 + int64(c-'0')
			}
		} else if v, ok := headerValue(b, "etag:"); ok {
			h.etag = v
		}
	}
}

// headerValue returns the trimmed value of the header line at the start
// of b when its name matches lowerName (ASCII case-insensitively).
func headerValue(b []byte, lowerName string) ([]byte, bool) {
	if len(b) < len(lowerName) {
		return nil, false
	}
	for i := 0; i < len(lowerName); i++ {
		if b[i]|0x20 != lowerName[i] && b[i] != lowerName[i] {
			return nil, false
		}
	}
	v := b[len(lowerName):]
	if i := bytes.IndexByte(v, '\r'); i >= 0 {
		v = v[:i]
	}
	return bytes.TrimSpace(v), true
}

// stream validates the responses arriving on one connection against the
// requests in flight on it, incrementally: bytes come in whatever pieces
// the polls deliver.
type stream struct {
	g    *gen
	s    sock
	buf  []byte
	r, w int       // unparsed bytes are buf[r:w]
	fifo []pending // written, not yet answered, in order
	out  []byte    // scratch for batched writes
	nth  int64     // responses begun; one in fullCheckEvery is checksummed
	dead bool

	// oneShot marks a Connection: close exchange: the single response
	// is recorded only when the server ends the stream, as answered
	// holds it until then.
	oneShot  bool
	answered bool

	// The response being read, once its first byte is in; inBody after
	// its head is parsed.
	ttfb   int64
	inBody bool
	fk     failKind
	obj    *object // non-nil: compare the body with this object's content
	full   bool    // also checksum the whole body
	crc    uint32
	pos, n int64 // body bytes consumed, and expected
}

// readable polls the socket once and parses what arrived. It reports
// whether any bytes (or an end of stream) came in, and a non-nil error
// when the connection is finished: errEOF, or something worse.
func (st *stream) readable() (progressed bool, err error) {
	if st.r == st.w {
		st.r, st.w = 0, 0
	} else if st.w == len(st.buf) {
		if st.r == 0 {
			return false, errHeadTooLong
		}
		st.w = copy(st.buf, st.buf[st.r:st.w])
		st.r = 0
	}
	n, err := st.s.poll(st.buf[st.w:])
	if err == errWouldBlock {
		return false, nil
	}
	if err != nil {
		return true, err
	}
	if n == 0 {
		return true, errEOF
	}
	now := st.g.clk.now()
	st.w += n
	for st.r < st.w && err == nil {
		if len(st.fifo) == 0 || st.answered {
			return true, errUnsolicited
		}
		if !st.inBody {
			if st.ttfb == 0 {
				st.ttfb = now
			}
			i := bytes.Index(st.buf[st.r:st.w], crlfcrlf)
			if i < 0 {
				break
			}
			err = st.beginBody(st.buf[st.r : st.r+i+2])
			st.r += i + 4
		}
		if err == nil && st.body() {
			st.complete(now)
		}
	}
	return true, err
}

// beginBody parses the head of the response to the oldest request in
// flight and decides how its body is checked.
func (st *stream) beginBody(b []byte) error {
	var h head
	if err := parseHead(b, &h); err != nil {
		return err
	}
	rq := st.fifo[0].req
	if st.g.spec.touch && rq.obj.etag == "" {
		rq.obj.etag = string(h.etag)
	}
	st.nth++
	st.inBody, st.fk, st.obj, st.pos, st.n, st.crc = true, passed, nil, 0, 0, 0
	if h.status != rq.status {
		st.fk = failStatus
	}
	if h.status == 304 || h.status == 204 {
		return nil
	}
	if h.clen < 0 {
		// Every response in these workloads is length-framed; without
		// a length the stream cannot be resynchronised.
		return errNoLength
	}
	st.n = h.clen
	if st.fk == passed {
		if h.clen != rq.obj.size {
			st.fk = failLength
		} else {
			st.obj, st.full = rq.obj, st.nth%fullCheckEvery == 0
		}
	}
	return nil
}

// body consumes buffered body bytes and reports whether the body is
// complete. The first and last edgeBytes are compared with the
// generated content as they stream by.
func (st *stream) body() bool {
	seg := st.buf[st.r:st.w]
	if left := st.n - st.pos; int64(len(seg)) > left {
		seg = seg[:left]
	}
	if o := st.obj; o != nil && len(seg) > 0 {
		pos, good := st.pos, true
		if pos < int64(len(o.head)) {
			m := min(len(seg), len(o.head)-int(pos))
			good = bytes.Equal(seg[:m], o.head[pos:int(pos)+m])
		}
		if tailAt := st.n - int64(len(o.tail)); pos+int64(len(seg)) > tailAt {
			a := max(pos, tailAt)
			sub := seg[a-pos:]
			good = good && bytes.Equal(sub, o.tail[a-tailAt:a-tailAt+int64(len(sub))])
		}
		if st.full {
			st.crc = crc32.Update(st.crc, castagnoli, seg)
		}
		if !good {
			st.fk = failBody
		}
	}
	st.pos += int64(len(seg))
	st.r += len(seg)
	return st.pos == st.n
}

// complete ends the response being read: recorded at once on a
// persistent connection, held for the end of the stream on a one-shot.
func (st *stream) complete(now int64) {
	if st.obj != nil && st.full && st.crc != st.obj.crc {
		st.fk = failBody
	}
	st.inBody = false
	if st.oneShot {
		st.answered = true
		return
	}
	st.record(now)
}

// record writes the oldest request's verdict to the run's record.
func (st *stream) record(now int64) {
	bytes := st.n
	if st.fk != passed {
		bytes = 0
	}
	st.g.done(&st.fifo[0], st.ttfb, now, bytes, st.fk)
	st.fifo = st.fifo[1:]
	st.ttfb = 0
}

// abandon records everything still in flight as failed.
func (st *stream) abandon(fk failKind) {
	for i := range st.fifo {
		st.g.done(&st.fifo[i], 0, st.g.clk.now(), 0, fk)
	}
	st.fifo, st.dead = nil, true
}

// send writes the requests in one call and queues them as in flight.
// A negative due means "now": the closed loop times from the write.
func (st *stream) send(due int64, rqs ...*request) {
	g := st.g
	now := g.clk.now()
	if due < 0 {
		due = now
	}
	first := len(st.fifo)
	st.out = st.out[:0]
	for _, rq := range rqs {
		st.fifo = append(st.fifo, pending{req: rq, intended: due, start: now})
		st.out = append(st.out, rq.wire...)
	}
	g.started(&st.fifo[first])
	if st.dead {
		st.abandon(failRefused)
		return
	}
	err := st.s.write(st.out)
	for w := g.clk.now(); first < len(st.fifo); first++ {
		st.fifo[first].written = w
	}
	if err != nil {
		st.abandon(failRefused)
	}
}

// --- the poll loop ---

// arrivals yields Poisson arrival times at the spec's rate until the
// window closes; with no rate (closed loop) it yields none.
func (g *gen) arrivals() func() (int64, bool) {
	if g.spec.rate <= 0 || g.spec.touch {
		return func() (int64, bool) { return 0, false }
	}
	s := g.spec.site
	rng := rand.New(rand.NewPCG(s.seed, uint64(s.runs)<<32|0xA771))
	due := int64(0)
	return func() (int64, bool) {
		due += int64(rng.ExpFloat64() / g.spec.rate * 1e9)
		return due, due < g.t1
	}
}

// polled notes one pass of a poll loop, for bench.client_busy_frac. When
// the driver's origin serves on the same CPU, a pass that found nothing
// to do yields: measured on proxy_mix, the origin otherwise waits out
// the loop's time slice and p99 sits at 3.8 ms instead of under 1 ms.
// Without such a tenant the loop does better not yielding (hot_small's
// p50 spread over seeds was 61–67 µs, against 54–77 µs yielding).
func (g *gen) polled(now int64, progressed bool) {
	if now >= g.t0 && now < g.t1 {
		g.polls++
		if !progressed {
			g.idlePolls++
		}
	}
	if !progressed && g.spec.yield {
		syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// keepAlive drives the persistent connections. Open loop: each arrival
// is written when due, behind whatever is still in flight on its
// connection (they take turns), and timed from when it was due. Closed
// loop: each connection writes depth requests in one call, reads their
// responses, and writes the next depth, so pipelined requests share
// system calls on both sides, always depth to a write. (Replacing each
// response as it arrives keeps the pipeline fuller, but a polling client
// then writes whatever trickled in, and the size of its writes — and
// with it hot_pipelined's throughput: 55k, 85k or 118k req/s from one
// run to the next — is set by how the two ends happen to fall into
// step.)
func (g *gen) keepAlive(streams []*stream, pickers []*picker) {
	next := g.arrivals()
	due, more := next()
	open := more
	exhausted := make([]bool, len(streams))
	var rqs []*request
	refill := func(i, n int) {
		rqs = rqs[:0]
		for ; n > 0 && !exhausted[i]; n-- {
			if rq := pickers[i].next(); rq != nil {
				rqs = append(rqs, rq)
			} else {
				exhausted[i] = true
			}
		}
		if len(rqs) > 0 {
			streams[i].send(-1, rqs...)
		}
	}
	depth := max(g.spec.depth, 1)
	if !open {
		for i := range streams {
			refill(i, depth)
		}
	}
	for turn := 0; ; {
		now := g.clk.now()
		progressed := false
		for ; more && due <= now; turn++ {
			i := turn % len(streams)
			streams[i].send(due, pickers[i].next())
			due, more = next()
			progressed = true
		}
		inflight := 0
		for i, st := range streams {
			if len(st.fifo) == 0 {
				continue
			}
			p, err := st.readable()
			progressed = progressed || p
			if err != nil {
				st.abandon(failRefused)
			} else if !open && len(st.fifo) == 0 && (g.spec.touch || now < g.t1) {
				refill(i, depth)
			}
			inflight += len(st.fifo)
		}
		if inflight == 0 && !more && (open || g.spec.touch || now >= g.t1) {
			return
		}
		if now >= g.giveUp {
			for _, st := range streams {
				st.abandon(failTimeout)
			}
			return
		}
		g.polled(now, progressed)
	}
}

// churn serves each arrival on a TCP connection of its own — connect,
// one request with Connection: close, read to EOF — on at most slots
// connections at a time. An arrival that finds every slot busy waits,
// and the wait counts: latency runs from when it was due to when the
// server closed. Closed loop (the capacity probe): a slot's next
// connection opens when its last one ends.
func (g *gen) churn(slots int, pk *picker) {
	next := g.arrivals()
	due, more := next()
	open := more
	var waiting []int64 // arrivals that found every slot busy
	busy := make([]*stream, slots)
	bufs := make([][]byte, slots)
	for i := range bufs {
		bufs[i] = make([]byte, 64<<10)
	}
	var nth int64
	for {
		now := g.clk.now()
		progressed := false
		for ; more && due <= now; due, more = next() {
			waiting = append(waiting, due)
		}
		inflight := 0
		for i, st := range busy {
			if st == nil {
				t := now
				if open {
					if len(waiting) == 0 {
						continue
					}
					t, waiting = waiting[0], waiting[1:]
				} else if now >= g.t1 {
					continue
				}
				progressed = true
				nth++
				if st = g.connect(pk.next(), t, bufs[i], nth); st == nil {
					continue
				}
				busy[i] = st
			}
			inflight++
			p, err := st.readable()
			progressed = progressed || p
			switch {
			case err == nil && now-st.fifo[0].start < int64(drainTimeout):
				continue
			case err == nil:
				st.abandon(failTimeout)
			case err == errEOF && st.answered:
				st.record(g.clk.now())
			case err == errUnsolicited:
				// Connection: close was asked for: nothing may follow
				// the response.
				st.abandon(failLength)
			default:
				st.abandon(failRefused)
			}
			st.s.close()
			busy[i] = nil
			inflight--
		}
		if inflight == 0 && !more && len(waiting) == 0 && (open || now >= g.t1) {
			return
		}
		g.polled(now, progressed)
	}
}

// connect opens one churn connection and writes its request; nil when
// that failed (and was recorded).
func (g *gen) connect(rq *request, due int64, buf []byte, nth int64) *stream {
	p := pending{req: rq, intended: due, start: g.clk.now()}
	g.started(&p)
	// One write per connection: Nagle never holds it back, so the
	// TCP_NODELAY system call is saved.
	s, err := g.dial(false)
	p.connected = g.clk.now()
	if err == nil {
		if err = s.write(rq.wire); err != nil {
			s.close()
		}
	}
	p.written = g.clk.now()
	if err != nil {
		g.done(&p, 0, p.written, 0, failRefused)
		return nil
	}
	return &stream{g: g, s: s, buf: buf, nth: nth - 1, oneShot: true, fifo: []pending{p}}
}

// keepAwake runs, until the returned stop is called, one thread per
// listed CPU that does nothing but yield, at the lowest priority: it
// gives the CPU up to anything else at once, but the CPU never halts.
//
// That is for flashd's CPUs. A virtual CPU that halts when flashd has
// nothing to do takes tens of µs to several ms to resume when the next
// request arrives (the hypervisor has to schedule it again), and both
// the delay and the CPU time the guest kernel books for it vary from
// run to run with the host's other tenants: measured on hot_small,
// p50 55–84 µs and 44–57 µs of server CPU per request across ten runs
// of one binary, p99 235–864 µs. Kept awake — the same thing idle=poll
// on the kernel command line does — the numbers are the server's, not
// the hypervisor's. The cost to flashd is a context switch when it
// wakes and, when it never sleeps, the 1.5% of the CPU a nice-19 thread
// is owed.
func keepAwake(cpus []int) (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	for _, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Never unlocked: the thread, with its affinity and its
			// priority, ends with the goroutine.
			runtime.LockOSThread()
			var mask [16]uint64
			mask[cpu/64] = 1 << (cpu % 64)
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
				return
			}
			syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 19)
			for !quit.Load() {
				syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
			}
		}()
	}
	return func() { quit.Store(true); wg.Wait() }
}

// --- one load run ---

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runLoad drives one load run to completion and returns its record.
// Every goroutine it starts has exited when it returns.
func runLoad(spec loadSpec) (*loadResult, error) {
	s := spec.site
	s.runs++
	ta, err := net.ResolveTCPAddr("tcp4", spec.addr)
	if err != nil {
		return nil, err
	}
	// A collection would put the runtime's mark workers on the client's
	// CPUs for milliseconds at a time, in the middle of the schedule; a
	// run allocates a few tens of MB, so collect before and after it
	// instead.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := &gen{spec: spec, sa: syscall.SockaddrInet4{Port: ta.Port}, clk: clock{epoch: time.Now()}}
	copy(g.sa.Addr[:], ta.IP.To4())
	g.win = make([]winCount, spec.subwins)
	g.t0 = int64(spec.lead)
	g.t1 = g.t0 + int64(spec.window)
	g.giveUp = g.t1 + int64(drainTimeout)
	if spec.touch {
		g.t0, g.t1, g.giveUp = 0, 1<<62, int64(time.Minute) // bounded by the data set, not the clock
	}

	defer keepAwake(spec.awake)()

	var streams []*stream
	defer func() {
		for _, st := range streams {
			st.s.close()
		}
	}()
	churn := s.wl.churn && !spec.touch
	pickers := make([]*picker, spec.conns)
	for i := range pickers {
		pickers[i] = s.picker(s.runs, i, spec.conns)
		if spec.touch {
			pickers[i] = s.toucher(i, spec.conns)
		}
		if !churn {
			sk, err := g.dial(true)
			if err != nil {
				return nil, err
			}
			streams = append(streams, &stream{g: g, s: sk, buf: make([]byte, 256<<10)})
		}
	}

	// The window's side effects (status scrapes, CPU samples) run on
	// their own goroutine so they cannot delay the generator.
	var cpu0, cpu1 time.Duration
	var ctl sync.WaitGroup
	if !spec.touch {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			time.Sleep(time.Duration(g.t0 - g.clk.now()))
			cpu0 = cpuTime()
			if spec.atOpen != nil {
				spec.atOpen()
			}
			time.Sleep(time.Duration(g.t1 - g.clk.now()))
			cpu1 = cpuTime()
			if spec.atClose != nil {
				spec.atClose()
			}
		}()
	}
	if churn {
		g.churn(spec.conns, pickers[0])
	} else {
		g.keepAlive(streams, pickers)
	}
	ctl.Wait()
	g.clientCPU, g.epoch = cpu1-cpu0, g.clk.epoch
	return &g.loadResult, nil
}
