//go:build linux

package flash

// The epoll connection engine (Config.ConnEngine = ConnEngineEpoll).
//
// This file is the paper's heart transplanted: one readiness loop per
// shard (epoll standing in for 1999's select), every connection a
// non-blocking fd plus a small state machine, no goroutines parked per
// connection. The goroutine engine keeps one stack alive for an idle
// keep-alive conn (plus, transiently, a handler's); here an idle conn
// costs its fd in the interest set, a *conn already sized for the
// zero-alloc steady state, and a link in a timer wheel.
//
// The state machine reuses the whole existing exchange pipeline
// unchanged: head parsing runs over the same carry-over ring
// (npAdvance mirrors conn.serve), responses flow through the same
// bodySource items (queueItem stages them on the conn instead of
// handing them to a goroutine; npPump pushes bytes until EAGAIN), and
// handlers —
// which may legitimately block — still run on their own transient
// goroutines, reading request bodies through npSock, a net.Conn shim
// over the raw fd that parks on readiness tokens forwarded by the
// loop. Edge-triggered discipline: readReady/writeReady are sticky and
// cleared ONLY when a syscall reports EAGAIN; re-arm is implicit in
// the flags, never in EPOLL_CTL calls.
//
// Timeouts live in a per-shard timer wheel (wheelSlots × wheelTick)
// swept on every loop wake: an idle conn holds no timer goroutine and
// no runtime timer, just an intrusive list link. Sub-second precision
// paths (BodyReadTimeout trickle caps) flow through npSock's explicit
// deadlines instead and keep exact semantics.

import (
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/failpoint"
	"repro/internal/httpmsg"
)

// epollSupported gates Config.ConnEngine validation.
const epollSupported = true

// npState is the per-conn position in the exchange cycle.
const (
	npStateHead = iota // parsing (or waiting for) a request head
	npStateResp        // an exchange is in flight; loop only pumps writes
)

const (
	wheelSlots = 512
	wheelTick  = int64(100 * time.Millisecond)
	npWaitMs   = 50 // EpollWait timeout: bounds wheel sweep latency
)

// epollET is EPOLLET as a uint32 (the syscall constant is a negative
// int on linux and does not convert directly).
const epollET = uint32(1) << 31

// npShard is one shard's readiness engine: the epoll set, the wake
// pipe that turns mailbox posts into loop events, the fd→conn table,
// and the timer wheel.
type npShard struct {
	epfd         int
	wakeR, wakeW int
	// sleeping is the sleeping-barber flag for the wake protocol:
	// set before EpollWait, checked by npWake after enqueuing.
	sleeping atomic.Bool

	conns  []*conn // indexed by fd; nil slots are free
	events []syscall.EpollEvent

	wheel     [wheelSlots]*conn
	lastSweep int64
	wakeBuf   [64]byte
}

// npConn is the loop-owned per-connection engine state. All fields
// except the ioMu-guarded pair and the signal channels are touched
// only by the shard loop.
type npConn struct {
	fd    int
	state int
	// preamble counts stray CR/LF bytes stripped before the head
	// (carried across parks so a CRLF trickler still trips the cap).
	preamble int

	// Sticky readiness (edge-triggered): cleared only on EAGAIN.
	readReady  bool
	writeReady bool
	closed     bool

	// The staged write item and its transmit cursor. queueItem stages
	// exactly one (the at-most-one-in-flight contract both engines
	// share); npPump advances it.
	cur         writeItem
	hasCur      bool
	dataOff     int
	bodyOff     int
	sfSent      int64
	itemWrote   int64
	itemSfWrote int64
	// sendfile fallback (EINVAL/ENOSYS before the first byte): copy
	// through a lazily allocated staging buffer instead.
	sfFallback bool
	sfBuf      []byte
	sfBufOff   int
	sfBufLen   int
	pumping    bool

	// exBody is the current exchange's request-body reader, kept so
	// npNext can drain leftovers before the next head (the epoll
	// analogue of conn.serve's post-waitResponse drain).
	exBody *bodyReader

	// Timer-wheel intrusive link (loop-owned).
	deadline     int64
	wslot        int // -1 when unlinked
	wprev, wnext *conn

	// ioMu orders handler-goroutine syscalls (npSock reads/writes)
	// against the loop's close(2): the fd number is never released
	// while a syscall may be in flight, so a reused fd cannot be hit.
	ioMu     sync.Mutex
	ioClosed bool
	// Readiness tokens the loop forwards to parked npSock calls.
	rdSig, wrSig chan struct{}
}

// newNpShard builds the epoll set and wake pipe for one shard.
func newNpShard() (*npShard, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, os.NewSyscallError("epoll_create1", err)
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, os.NewSyscallError("pipe2", err)
	}
	ns := &npShard{
		epfd:   epfd,
		wakeR:  p[0],
		wakeW:  p[1],
		events: make([]syscall.EpollEvent, 128),
	}
	// The wake pipe is level-triggered: the loop drains it fully on
	// every wake, so a lost edge cannot strand a post.
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p[0])}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p[0], &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(p[0])
		syscall.Close(p[1])
		return nil, os.NewSyscallError("epoll_ctl", err)
	}
	ns.lastSweep = time.Now().UnixNano()
	return ns, nil
}

// npWake tickles the shard loop out of EpollWait after a mailbox post.
func (s *shard) npWake() {
	ns := s.np
	if ns == nil || !ns.sleeping.Load() {
		return
	}
	var one = [1]byte{1}
	syscall.Write(ns.wakeW, one[:]) // EAGAIN = a wake is already pending
}

// npLoop is the epoll engine's event loop body: drain the mailbox,
// wait for readiness, dispatch, sweep timers. It replaces the blocking
// channel select of shard.loop while keeping identical mailbox
// semantics (a stop message still ends it, after a last drain).
func (s *shard) npLoop() {
	defer close(s.loopDone)
	ns := s.np
	for {
		s.drainMsgs()
		if s.stopped {
			break
		}
		ns.sleeping.Store(true)
		n := 0
		if len(s.msgs) == 0 {
			var err error
			n, err = syscall.EpollWait(ns.epfd, ns.events, npWaitMs)
			if err != nil {
				n = 0 // EINTR: treat as an empty wake
			}
		}
		ns.sleeping.Store(false)
		for i := 0; i < n; i++ {
			ev := &ns.events[i]
			fd := int(ev.Fd)
			if fd == ns.wakeR {
				for {
					if _, err := syscall.Read(ns.wakeR, ns.wakeBuf[:]); err != nil {
						break
					}
				}
				continue
			}
			if fd >= 0 && fd < len(ns.conns) {
				if c := ns.conns[fd]; c != nil {
					s.npEvent(c, ev.Events)
				}
			}
		}
		s.npSweep(time.Now().UnixNano())
	}
	// The server is going down. Close every remaining conn (releasing
	// staged pins) before the descriptors go away.
	for _, c := range ns.conns {
		if c != nil {
			s.npClose(c)
		}
	}
	syscall.Close(ns.epfd)
	syscall.Close(ns.wakeR)
	syscall.Close(ns.wakeW)
}

// npEvent applies one readiness event to a conn's state machine.
func (s *shard) npEvent(c *conn, events uint32) {
	np := c.np
	if np.closed {
		return
	}
	if events&(syscall.EPOLLOUT|syscall.EPOLLERR|syscall.EPOLLHUP) != 0 {
		np.writeReady = true
		if np.hasCur {
			if np.state == npStateResp {
				s.wheelUnlink(c) // the write-park deadline; pump re-arms
			}
			s.npPump(c)
			if np.closed {
				return
			}
		} else {
			select {
			case np.wrSig <- struct{}{}:
			default:
			}
		}
	}
	if events&(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
		np.readReady = true
		if np.state == npStateHead {
			s.npAdvance(c)
		} else {
			// An exchange owns the read side (request body / drain):
			// forward the readiness to whoever is parked on it.
			select {
			case np.rdSig <- struct{}{}:
			default:
			}
		}
	}
}

// npAdopt registers a freshly accepted fd with the shard loop and
// starts its head state machine. Loop context.
func (s *shard) npAdopt(c *conn) {
	np := c.np
	ev := syscall.EpollEvent{
		Events: syscall.EPOLLIN | syscall.EPOLLOUT | syscall.EPOLLRDHUP | epollET,
		Fd:     int32(np.fd),
	}
	if err := syscall.EpollCtl(s.np.epfd, syscall.EPOLL_CTL_ADD, np.fd, &ev); err != nil {
		np.closed = true
		c.closeDone()
		syscall.Close(np.fd)
		s.srv.unregisterConn(c)
		return
	}
	for len(s.np.conns) <= np.fd {
		s.np.conns = append(s.np.conns, nil)
	}
	s.np.conns[np.fd] = c
	s.stats.Accepted++
	s.stats.OpenConns++
	np.state = npStateHead
	// Optimistic readiness: data (or an error) may have raced the ADD
	// and edge-triggered mode will not re-announce it. One spurious
	// EAGAIN per accept buys never missing a pre-registration edge.
	np.readReady = true
	np.writeReady = true
	s.npAdvance(c)
}

// npAdvance runs the head phase: skip preamble, accumulate a complete
// request head in the carry-over ring, then start the exchange —
// conn.serve's parse loop, readiness-driven. Loop context; valid only
// in npStateHead.
func (s *shard) npAdvance(c *conn) {
	np := c.np
	for !np.closed {
		c.skipBlank(&np.preamble)
		if end := httpmsg.RequestEnd(c.window()); end >= 0 {
			s.npStartExchange(c, end)
			return
		}
		if c.re-c.rs+np.preamble > s.cfg.MaxHeaderBytes {
			np.preamble = 0
			s.npBeginResp(c)
			s.rejectRequest(c, nil, 400)
			return
		}
		if !np.readReady {
			d := s.cfg.ReadTimeout
			if c.re == c.rs && np.preamble == 0 {
				d = s.cfg.IdleTimeout
				// A parked-idle conn carries no bytes; drop the ring so
				// a fleet of idle keep-alives doesn't pin one 4 KiB
				// buffer each — the engine's whole reason to exist. The
				// next readable byte reallocates it below.
				c.rb, c.rs, c.re = nil, 0, 0
			}
			s.wheelArm(c, d)
			return
		}
		if c.rb == nil {
			c.rb = make([]byte, 4096)
		}
		n, err := npRead(np.fd, c.fillSpace())
		switch {
		case n > 0:
			c.re += n
		case err == syscall.EAGAIN:
			np.readReady = false
		default:
			// EOF between requests (n==0, err==nil) or a hard error.
			s.npClose(c)
			return
		}
	}
}

// npStartExchange copies the head out of the ring, parses it, and
// hands the plan to the shared exchange pipeline (same steps as
// conn.serve, same zero-copy parse into the recycled request).
func (s *shard) npStartExchange(c *conn, end int) {
	np := c.np
	np.preamble = 0
	c.headBuf = append(c.headBuf[:0], c.rb[c.rs:c.rs+end]...)
	c.consume(end)
	s.npBeginResp(c)
	c.req.Reset()
	if err := c.req.ParseBytes(c.headBuf); err != nil {
		status := 400
		if err == httpmsg.ErrTargetTooBig {
			status = 414
		} else if err == httpmsg.ErrUnsupported {
			status = 501
		}
		s.rejectRequest(c, nil, status)
		return
	}
	plan := c.planExchange(&c.req)
	np.exBody = plan.body
	s.handleExchange(c, plan)
}

// npBeginResp flips a conn from head to response state (dropping the
// head-phase wheel deadline: the exchange pipeline owns pacing now).
func (s *shard) npBeginResp(c *conn) {
	s.wheelUnlink(c)
	c.np.state = npStateResp
}

// npQueue stages one write item on the conn — the epoll engine's
// queueItem tail — and pushes bytes immediately. At most one item is
// staged at a time (queueItem's in-flight contract).
func (s *shard) npQueue(c *conn, item writeItem) {
	np := c.np
	np.cur = item
	np.hasCur = true
	np.dataOff, np.bodyOff = 0, 0
	np.sfSent, np.itemWrote, np.itemSfWrote = 0, 0, 0
	np.sfFallback = false
	np.sfBufOff, np.sfBufLen = 0, 0
	s.npPump(c)
}

// npPump pushes the staged item until it completes, the socket fills
// (park on EPOLLOUT with a WriteTimeout wheel deadline), or the conn
// dies. Completion re-enters the shared itemDone pipeline, which may
// stage the source's next item — the loop keeps going without
// recursing (the pumping guard turns nested npQueue calls into plain
// staging).
func (s *shard) npPump(c *conn) {
	np := c.np
	if np.pumping {
		return
	}
	np.pumping = true
	defer func() { np.pumping = false }()
	for np.hasCur && !np.closed {
		if !np.writeReady {
			s.wheelArm(c, s.cfg.WriteTimeout)
			return
		}
		err := s.npTransmit(c)
		if err == syscall.EAGAIN {
			np.writeReady = false
			s.wheelArm(c, s.cfg.WriteTimeout)
			return
		}
		// The item is over — transmitted or failed. Clear the staging
		// BEFORE itemDone so a close on the failure path cannot
		// double-release it, and so the source's next item can stage.
		item := np.cur
		np.cur = writeItem{}
		np.hasCur = false
		wrote, sfWrote := np.itemWrote, np.itemSfWrote
		s.itemDone(c, item, wrote, sfWrote, err == nil)
	}
}

// npTransmit advances the staged item: inline data and chunk window
// first (one writev, the §5.5 gather), then the descriptor window via
// sendfile(2). Returns nil when the item is fully sent, EAGAIN to
// park, or a hard error.
func (s *shard) npTransmit(c *conn) error {
	np := c.np
	item := &np.cur
	if failpoint.Armed() {
		// Error hooks only here: transmission runs on the shard loop,
		// so a sleeping hook would stall every conn on the shard (which
		// a chaos drill may of course intend).
		if err := fpConnWrite.Eval(c.remote); err != nil {
			return err
		}
	}
	var body []byte // this engine is handed chunk runs of one
	if len(item.bodies) > 0 {
		body = item.bodies[0]
	}
	for np.dataOff < len(item.data) || np.bodyOff < len(body) {
		var iov [2]syscall.Iovec
		n := 0
		if d := item.data[np.dataOff:]; len(d) > 0 {
			iov[n].Base = &d[0]
			iov[n].SetLen(len(d))
			n++
		}
		if b := body[np.bodyOff:]; len(b) > 0 {
			iov[n].Base = &b[0]
			iov[n].SetLen(len(b))
			n++
		}
		s.stats.GatherWrites++
		wn, err := npWritev(np.fd, iov[:n])
		if wn > 0 {
			np.itemWrote += int64(wn)
			adv := wn
			if rem := len(item.data) - np.dataOff; adv >= rem {
				np.dataOff = len(item.data)
				adv -= rem
			} else {
				np.dataOff += adv
				adv = 0
			}
			np.bodyOff += adv
		}
		if err != nil {
			return err
		}
	}
	if item.sf == nil {
		return nil
	}
	f := item.sf.File()
	for np.sfSent < item.sfLen {
		if np.sfFallback {
			if err := s.npSendfileFallback(c, f); err != nil {
				return err
			}
			continue
		}
		batch := item.sfLen - np.sfSent
		if batch > sendfileMaxPerCall {
			batch = sendfileMaxPerCall
		}
		pos := item.sfOff + np.sfSent
		s.stats.GatherWrites++
		wn, err := syscall.Sendfile(np.fd, int(f.Fd()), &pos, int(batch))
		if wn > 0 {
			np.sfSent += int64(wn)
			np.itemWrote += int64(wn)
			np.itemSfWrote += int64(wn)
			continue
		}
		switch err {
		case nil:
			// Zero progress without error: the file shrank under us.
			return io.ErrUnexpectedEOF
		case syscall.EINTR:
		case syscall.EAGAIN:
			return syscall.EAGAIN
		case syscall.EINVAL, syscall.ENOSYS:
			if np.sfSent == 0 {
				np.sfFallback = true
				continue
			}
			return err
		default:
			return err
		}
	}
	return nil
}

// npSendfileFallback copies one staging buffer's worth of the
// descriptor window through userspace (sendfile refused the pairing —
// an exotic filesystem). Mirrors copySend; cold by construction, so
// the pread on the loop is acceptable.
func (s *shard) npSendfileFallback(c *conn, f *os.File) error {
	np := c.np
	item := &np.cur
	if np.sfBufOff == np.sfBufLen {
		if np.sfBuf == nil {
			np.sfBuf = make([]byte, 64<<10)
		}
		span := item.sfLen - np.sfSent
		if span > int64(len(np.sfBuf)) {
			span = int64(len(np.sfBuf))
		}
		rn, rerr := f.ReadAt(np.sfBuf[:span], item.sfOff+np.sfSent)
		if rn <= 0 {
			if rerr == nil || rerr == io.EOF {
				rerr = io.ErrUnexpectedEOF
			}
			return rerr
		}
		np.sfBufOff, np.sfBufLen = 0, rn
	}
	for np.sfBufOff < np.sfBufLen {
		s.stats.GatherWrites++
		wn, err := syscall.Write(np.fd, np.sfBuf[np.sfBufOff:np.sfBufLen])
		if wn > 0 {
			np.sfBufOff += wn
			np.sfSent += int64(wn)
			np.itemWrote += int64(wn)
			continue
		}
		switch err {
		case syscall.EINTR:
		case nil:
			return io.ErrUnexpectedEOF
		default:
			return err
		}
	}
	return nil
}

// npNext is signalNext for epoll conns: the response is over; drain
// whatever the handler left of the request body, then either park for
// (or parse) the next head or close. Loop context.
func (s *shard) npNext(c *conn, keep bool) {
	np := c.np
	if np.closed {
		return
	}
	if !keep {
		s.npClose(c)
		return
	}
	body := np.exBody
	np.exBody = nil
	if body != nil && !body.done {
		if body.err != nil || body.strandedExpect() {
			// drain() would refuse; skip the goroutine.
			s.npClose(c)
			return
		}
		// Leftover body bytes on the wire. Draining can block (the
		// client may still be sending), so it runs on a transient
		// goroutine reading through npSock — the loop meanwhile just
		// forwards read-readiness tokens — and re-enters the loop with
		// the verdict. This is the one cold path that borrows a
		// goroutine; idle and steady-state conns never do.
		go func() {
			ok := body.drain()
			s.post(func() {
				if c.np.closed {
					return
				}
				if !ok {
					s.npClose(c)
					return
				}
				s.npNextRequest(c)
			})
		}()
		return
	}
	if body != nil && !body.drain() {
		s.npClose(c)
		return
	}
	s.npNextRequest(c)
}

// npNextRequest re-enters the head phase after a completed exchange
// (a pipelined follower in the ring parses immediately; otherwise the
// conn parks idle).
func (s *shard) npNextRequest(c *conn) {
	if c.np.closed {
		return
	}
	c.np.state = npStateHead
	s.npAdvance(c)
}

// npClose tears down an epoll conn: release the staged item's pins,
// abort the source, wake parked handler goroutines, close the fd (the
// only place the fd number is released), and unregister. Loop
// context; idempotent.
func (s *shard) npClose(c *conn) {
	np := c.np
	if np.closed {
		return
	}
	np.closed = true
	s.wheelUnlink(c)
	s.markIdle(c)
	if src := c.ls.src; src != nil {
		src.abort(s, c)
	}
	if np.hasCur {
		item := np.cur
		np.cur = writeItem{}
		np.hasCur = false
		c.inFlight = false
		if src := c.ls.src; src != nil {
			src.release(s, c, item, false)
		} else if item.sf != nil {
			item.sf.Release()
		}
	}
	c.writeDone = true
	np.exBody = nil
	c.closeDone()
	np.ioMu.Lock()
	np.ioClosed = true
	syscall.Close(np.fd)
	np.ioMu.Unlock()
	if np.fd < len(s.np.conns) && s.np.conns[np.fd] == c {
		s.np.conns[np.fd] = nil
	}
	s.stats.OpenConns--
	s.srv.unregisterConn(c)
}

// npExpire handles a fired wheel deadline: a stalled write kills the
// item through the shared failure path; an idle/head timeout closes
// the conn (the goroutine reader's timeout-return, event-driven).
func (s *shard) npExpire(c *conn) {
	np := c.np
	if np.closed {
		return
	}
	if np.hasCur && !np.writeReady {
		item := np.cur
		np.cur = writeItem{}
		np.hasCur = false
		wrote, sfWrote := np.itemWrote, np.itemSfWrote
		s.itemDone(c, item, wrote, sfWrote, false)
		return
	}
	s.npClose(c)
}

// npShutdownIdle force-closes conns idle between exchanges during
// Server.Shutdown (no reader goroutine will ever notice the shutdown
// flag; without this they would linger until their wheel deadline).
// Conns with a partial head or an exchange in flight drain normally.
func (s *shard) npShutdownIdle() {
	if s.np == nil {
		return
	}
	for _, c := range s.np.conns {
		if c == nil || c.np.closed {
			continue
		}
		if c.np.state == npStateHead && c.re == c.rs && c.np.preamble == 0 {
			s.npClose(c)
		}
	}
}

// --- timer wheel ---

// wheelArm schedules (or reschedules) the conn's single deadline d
// from now. Deadlines shorter than a tick round up to one: the wheel
// trades precision for holding no per-conn timer state beyond a list
// link, and every precise path uses npSock deadlines instead.
func (s *shard) wheelArm(c *conn, d time.Duration) {
	np := c.np
	if int64(d) < wheelTick {
		d = time.Duration(wheelTick)
	}
	at := time.Now().UnixNano() + int64(d)
	s.wheelUnlink(c)
	np.deadline = at
	slot := int((at / wheelTick) % wheelSlots)
	np.wslot = slot
	head := s.np.wheel[slot]
	np.wnext = head
	if head != nil {
		head.np.wprev = c
	}
	s.np.wheel[slot] = c
}

// wheelUnlink removes the conn from the wheel (no-op if unlinked).
func (s *shard) wheelUnlink(c *conn) {
	np := c.np
	if np.wslot < 0 {
		return
	}
	if np.wprev != nil {
		np.wprev.np.wnext = np.wnext
	} else {
		s.np.wheel[np.wslot] = np.wnext
	}
	if np.wnext != nil {
		np.wnext.np.wprev = np.wprev
	}
	np.wprev, np.wnext = nil, nil
	np.wslot = -1
	np.deadline = 0
}

// npSweep expires deadlines in every tick slot the clock has crossed
// since the last sweep. Entries armed a full lap ahead survive on
// their deadline check.
func (s *shard) npSweep(now int64) {
	ns := s.np
	from, to := ns.lastSweep/wheelTick, now/wheelTick
	if to == from {
		return
	}
	if to-from > wheelSlots {
		from = to - wheelSlots
	}
	for t := from + 1; t <= to; t++ {
		c := ns.wheel[t%wheelSlots]
		for c != nil {
			next := c.np.wnext
			if c.np.deadline <= now {
				s.wheelUnlink(c)
				s.npExpire(c)
			}
			c = next
		}
	}
	ns.lastSweep = now
}

// --- accept path ---

// serveEpoll is the epoll engine's accept loop: raw accept4(2) with
// SOCK_NONBLOCK|SOCK_CLOEXEC (no per-socket fcntl pair, no net.Conn
// allocation), adopting each fd into a shard's readiness loop.
// handled=false hands non-TCP listeners back to the portable accept
// loop.
//
// A TCPListener's RawConn supports only Control (its Read is
// hardwired to EINVAL), so every accept4 runs inside Control — which
// also guarantees the listener fd stays valid for the call — and
// EAGAIN waits happen on a private epoll set holding just the
// listener. Closing the listener auto-removes it from that set, so
// waits use short laps and re-probe through Control, whose error is
// the close signal.
func (s *Server) serveEpoll(l net.Listener) (err error, handled bool) {
	tl, ok := l.(*net.TCPListener)
	if !ok {
		return nil, false
	}
	rc, cerr := tl.SyscallConn()
	if cerr != nil {
		return nil, false
	}
	epfd, eperr := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if eperr != nil {
		return nil, false
	}
	defer syscall.Close(epfd)
	registered := false
	var events [1]syscall.EpollEvent
	for {
		var nfd int
		var sa syscall.Sockaddr
		var aerr error
		cerr := rc.Control(func(fd uintptr) {
			if !registered {
				ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd)}
				if syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev) == nil {
					registered = true
				}
			}
			nfd, sa, aerr = syscall.Accept4(int(fd),
				syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		})
		if cerr != nil {
			// The listener was closed under us (Serve's defer, Close,
			// Shutdown).
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed, true
			}
			return cerr, true
		}
		if aerr != nil {
			switch aerr {
			case syscall.EAGAIN:
				// Park until the listener is readable. The lap timeout
				// covers the closed-listener case (auto-removal means
				// no event would ever arrive); the next Control probe
				// then reports the close.
				syscall.EpollWait(epfd, events[:], 200)
			case syscall.ECONNABORTED, syscall.EINTR:
			case syscall.EMFILE, syscall.ENFILE:
				// Out of descriptors: burn the reserve fd to shed the
				// pending connection, reap idle conns, back off.
				s.surviveFdExhaustionEpoll(rc)
			default:
				s.mu.Lock()
				closed := s.closed
				s.mu.Unlock()
				if closed {
					return ErrServerClosed, true
				}
				return os.NewSyscallError("accept4", aerr), true
			}
			continue
		}
		if failpoint.Armed() {
			if ferr := fpAccept.Eval(); ferr != nil {
				syscall.Close(nfd)
				if errors.Is(ferr, syscall.EMFILE) || errors.Is(ferr, syscall.ENFILE) {
					s.surviveFdExhaustionEpoll(rc)
				}
				continue
			}
			if ferr := fpConnAlloc.Eval(); ferr != nil {
				syscall.Close(nfd)
				s.connsRejected.Add(1)
				continue
			}
		}
		// Match the net package's TCP defaults so the engines compare
		// apples to apples.
		syscall.SetsockoptInt(nfd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
		sh := s.shards[s.nextShard.Add(1)%uint64(len(s.shards))]
		c := newNpConnState(sh, nfd, sockaddrString(sa))
		if rerr := s.registerConn(c); rerr != nil {
			if rerr == ErrServerClosed {
				syscall.Close(nfd)
				return ErrServerClosed, true
			}
			s.rejectFd(nfd)
			continue
		}
		if !sh.post(func() { sh.npAdopt(c) }) {
			// Mailbox closed in the shutdown race: the loop will never
			// see this fd, so release it here.
			s.unregisterConn(c)
			syscall.Close(nfd)
		}
	}
}

// newNpConnState builds an epoll-engine conn over a raw fd. The conn
// reuses every shared field (ring, head buffer, pooled sources); the
// reply channel stays nil — no goroutine is spawned.
func newNpConnState(sh *shard, fd int, remote string) *conn {
	c := &conn{
		sh:     sh,
		remote: remote,
		done:   make(chan struct{}),
		rb:     make([]byte, 4096),
		np: &npConn{
			fd:    fd,
			wslot: -1,
			rdSig: make(chan struct{}, 1),
			wrSig: make(chan struct{}, 1),
		},
	}
	c.nc = &npSock{c: c}
	return c
}

// sockaddrString renders an accepted peer address as "ip:port".
func sockaddrString(sa syscall.Sockaddr) string {
	switch a := sa.(type) {
	case *syscall.SockaddrInet4:
		return net.JoinHostPort(net.IP(a.Addr[:]).String(), strconv.Itoa(a.Port))
	case *syscall.SockaddrInet6:
		return net.JoinHostPort(net.IP(a.Addr[:]).String(), strconv.Itoa(a.Port))
	}
	return "unknown"
}

// rejectFd is rejectConn for a raw accepted fd: best-effort write of
// the preformatted 503 (the socket is non-blocking and the response
// fits any send buffer), then close.
func (s *Server) rejectFd(fd int) {
	syscall.Write(fd, s.reject503)
	syscall.Close(fd)
}

// surviveFdExhaustionEpoll is surviveFdExhaustion for the raw accept4
// loop: the same reserve-fd dance against the listener's RawConn.
func (s *Server) surviveFdExhaustionEpoll(rc syscall.RawConn) {
	s.fdPressure.Add(1)
	s.reserveMu.Lock()
	if s.reserve != nil {
		s.reserve.Close()
		s.reserve = nil
		rc.Control(func(fd uintptr) {
			nfd, _, err := syscall.Accept4(int(fd),
				syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if err == nil {
				syscall.Close(nfd)
				s.connsRejected.Add(1)
			}
		})
		if f, err := os.Open(os.DevNull); err == nil {
			s.reserve = f
		}
	}
	s.reserveMu.Unlock()
	s.reapIdle(reapBatch)
	time.Sleep(emfileBackoff)
}

// npReapIdle closes up to budget conns parked idle between exchanges —
// reapIdle's epoll leg, run on the shard loop. Selection walks the fd
// table (approximate LRU: long-idle conns are as likely as any to be
// hit first; exact recency is not worth per-conn bookkeeping on the
// warm path).
func (s *shard) npReapIdle(budget *atomic.Int64) {
	if s.np == nil {
		return
	}
	for _, c := range s.np.conns {
		if budget.Load() <= 0 {
			return
		}
		if c == nil || c.np.closed {
			continue
		}
		if c.np.state == npStateHead && c.re == c.rs && c.np.preamble == 0 {
			budget.Add(-1)
			s.stats.IdleReaped++
			s.npClose(c)
		}
	}
}

// --- raw syscall helpers ---

// npRead is read(2) with EINTR retry. (0, nil) is EOF.
func npRead(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, p)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// npWritev is writev(2) with EINTR retry.
func npWritev(fd int, iov []syscall.Iovec) (int, error) {
	if len(iov) == 0 {
		return 0, nil
	}
	for {
		r, _, e := syscall.Syscall(syscall.SYS_WRITEV, uintptr(fd),
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			return 0, e
		}
		return int(r), nil
	}
}

// --- npSock: net.Conn over the raw fd ---

// npSock adapts an epoll-engine fd to net.Conn for the code that
// legitimately does direct socket I/O during an exchange: request-body
// reads (bodyReader/readRaw), the 100-continue and interim-response
// writes, and abort's Close. Reads and writes run on handler
// goroutines, park on the loop's readiness tokens, and honor the
// deadlines armed through Set*Deadline without per-call syscalls.
// Close is shutdown(2), never close(2): the fd number stays reserved
// until the loop's npClose, so no reused descriptor can be touched.
type npSock struct {
	c        *conn
	rdl, wdl atomic.Int64 // deadlines, unix nanos; 0 = none
}

func (ns *npSock) Read(p []byte) (int, error) {
	np := ns.c.np
	if len(p) == 0 {
		return 0, nil
	}
	for {
		np.ioMu.Lock()
		if np.ioClosed {
			np.ioMu.Unlock()
			return 0, net.ErrClosed
		}
		n, err := syscall.Read(np.fd, p)
		np.ioMu.Unlock()
		switch {
		case n > 0:
			return n, nil
		case err == nil:
			return 0, io.EOF
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			if perr := ns.park(np.rdSig, ns.rdl.Load()); perr != nil {
				return 0, perr
			}
		default:
			return 0, &net.OpError{Op: "read", Net: "tcp", Err: err}
		}
	}
}

func (ns *npSock) Write(p []byte) (int, error) {
	np := ns.c.np
	wrote := 0
	for wrote < len(p) {
		np.ioMu.Lock()
		if np.ioClosed {
			np.ioMu.Unlock()
			return wrote, net.ErrClosed
		}
		n, err := syscall.Write(np.fd, p[wrote:])
		np.ioMu.Unlock()
		switch {
		case n > 0:
			wrote += n
		case err == syscall.EINTR:
		case err == syscall.EAGAIN:
			if perr := ns.park(np.wrSig, ns.wdl.Load()); perr != nil {
				return wrote, perr
			}
		default:
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return wrote, &net.OpError{Op: "write", Net: "tcp", Err: err}
		}
	}
	return wrote, nil
}

// park waits for a readiness token, conn teardown, or the deadline.
// A stale token just causes one extra EAGAIN loop — harmless.
func (ns *npSock) park(sig chan struct{}, dl int64) error {
	var timeout <-chan time.Time
	if dl != 0 {
		d := time.Until(time.Unix(0, dl))
		if d <= 0 {
			return os.ErrDeadlineExceeded
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-sig:
		return nil
	case <-ns.c.done:
		return net.ErrClosed
	case <-timeout:
		return os.ErrDeadlineExceeded
	}
}

// Close half-closes the socket with shutdown(2); the loop notices the
// hangup and runs npClose, the only place the fd is really closed.
func (ns *npSock) Close() error {
	np := ns.c.np
	np.ioMu.Lock()
	if !np.ioClosed {
		syscall.Shutdown(np.fd, syscall.SHUT_RDWR)
	}
	np.ioMu.Unlock()
	return nil
}

func (ns *npSock) LocalAddr() net.Addr  { return npAddr("") }
func (ns *npSock) RemoteAddr() net.Addr { return npAddr(ns.c.remote) }

func (ns *npSock) SetDeadline(t time.Time) error {
	ns.SetReadDeadline(t)
	ns.SetWriteDeadline(t)
	return nil
}

func (ns *npSock) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		ns.rdl.Store(0)
	} else {
		ns.rdl.Store(t.UnixNano())
	}
	return nil
}

func (ns *npSock) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		ns.wdl.Store(0)
	} else {
		ns.wdl.Store(t.UnixNano())
	}
	return nil
}

// npAddr is a preformatted net.Addr (the remote string is computed at
// accept).
type npAddr string

func (a npAddr) Network() string { return "tcp" }
func (a npAddr) String() string  { return string(a) }
