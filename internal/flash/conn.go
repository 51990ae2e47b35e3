package flash

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
	"repro/internal/httpmsg"
)

// fpConnWrite injects into response transmission (args: remote addr).
// A latency hook stalls the connection's goroutine — a simulated slow
// client — while an error hook fails the write.
var fpConnWrite = failpoint.New("flash/conn-write")

// writeItem is the pipeline's wire format: one item of a response,
// handed from the loop to the connection's goroutine, which owns the
// socket. It is transmitted in order: the inline bytes (header, error
// body), then the chunk windows — all gathered into a single writev,
// the §5.5 pattern — and then, for the zero-copy transport, the
// descriptor window [sfOff, sfOff+sfLen) shipped with sendfile(2) (or
// the portable copy loop). `last` marks the response's final item. The
// loop commits every item when it queues it (shard.commit): what the
// item carries — chunk pins, a descriptor reference — stays with the
// connection until the goroutine reports it written (shard.released).
// Items travel by value through the reply channel, so the per-item
// traffic allocates nothing.
type writeItem struct {
	data []byte
	// chunks is the run of consecutive pinned chunks the item carries
	// and bodies[i] the bytes of chunks[i] to transmit — a sub-slice of
	// its Data where a Range request clamps the window. Both live in
	// the connection's loop-written scratch (conn.runChunks/runBodies),
	// which the walk does not touch again before the item is reported
	// written: whoever receives the item copies out what it keeps.
	chunks []*cache.Chunk
	bodies [][]byte
	// sf, when non-nil, is an acquired descriptor reference whose
	// [sfOff, sfOff+sfLen) byte window the writer ships after data.
	sf           *cache.FileRef
	sfOff, sfLen int64
	last         bool // response ends after this item
	// whole marks an item that is its response's only one and has no
	// descriptor window (set together with last): the goroutine may cork
	// it on the gather list. Every other item is written at once.
	whole bool
}

// wireLen is the byte count of the item's gathered part (everything
// but a descriptor window).
func (it *writeItem) wireLen() int {
	n := len(it.data)
	for _, b := range it.bodies {
		n += len(b)
	}
	return n
}

// pins is how many entries a committed item puts on the connection's
// pin FIFO: one per chunk, and one empty entry for a response that
// pins nothing, so that an unreported response always shows there.
func (it *writeItem) pins() int {
	return max(len(it.chunks), 1)
}

// connReply is one message from the event loop to the connection's
// goroutine. Every post the goroutine makes — a batch (or its
// continuation), or the flush report of a run its response goes on
// after — is answered by exactly one reply, which the goroutine
// consumes before it posts again; that is what keeps the loop's send on
// the capacity-1 channel from ever blocking. While a batch runs, the
// loop stages the whole responses it commits on the connection's
// gather list instead of replying (shard.commit); staged says how many
// it put there since its last reply. They precede the reply's own item
// on the wire, and the goroutine counts them as exchanges of the batch
// that are over.
type connReply struct {
	item   writeItem // replyItem
	staged int32
	kind   uint8
	keep   bool // the connection persists (after a last item, replyEnd)
}

const (
	// replyItem: an item the loop has committed. A whole one is corked;
	// any other is written at once, and unless it is its response's
	// last the goroutine waits for the reply to its flush report.
	replyItem = iota
	// replyEnd: the exchange is over without a last item — it failed,
	// or a handler's goroutine wrote the response itself.
	replyEnd
)

// gatherCap bounds the response bytes one writev carries, from both
// sides: a chunk run stops before its windows would pass it
// (chunkSource.walk), and a response that would take a connection's
// gather list past it flushes the list first. A pipelined burst
// therefore leaves in calls of at most this size (plus one response's
// header bytes).
//
// It also bounds what a client that stops reading can keep pinned: the
// corked list (at most the cap) plus the one response committed behind
// it while the list's flush is blocked (one run: at most the cap again,
// and under the default SendfileThreshold at most 256 KiB) — cap + one
// response of chunk bytes per stalled connection, until WriteTimeout
// closes it.
//
// Chosen by measurement, three runs per cap on each workload; the rows
// are in CHANGES.md. PR 20, one chunk per item: 32 / 64 / 128 KiB read
// 114 k / 160 k / 174 k req/s on hot_pipelined. PR 23, whole-response
// runs: 128 / 256 / 512 KiB read 232–237 k / 239–248 k / 245–252 k
// req/s on hot_pipelined (a 16-deep burst is ~196 KiB, so 128 KiB
// splits it) and 26.5–27.1 k / 27.6–29.3 k / 29.0–30.4 k req/s on
// cold_zipf (four pipelined responses of up to 160 KiB each).
const gatherCap = 512 << 10

// batchCap bounds the request heads one batch post carries: the
// complete heads a read left in the carry-over window are parsed and
// posted to the loop together, up to this many (see conn.takeHeads).
// Chosen by measurement on hot_pipelined (16 requests in flight per
// connection); the rows are in CHANGES.md.
const batchCap = 16

// loopState is the per-response state owned by the event loop. It is
// reset at the start of every exchange; write-side state that must
// survive mid-exchange resets (request restarts, reader rejections)
// lives on conn instead.
type loopState struct {
	req       *httpmsg.Request
	src       *chunkSource // the response's chunk walk, while runs are to come
	status    int
	bytesSent int64
}

// conn is one client connection: one goroutine (the serve method) that
// owns the socket in both directions, and loop-owned state. Everything
// a steady-state exchange needs — read buffer, head buffer, parsed
// request, chunk walk, header scratch, gather list — is owned by
// the connection and recycled across exchanges, so a warm keep-alive
// request touches no allocator at all.
type conn struct {
	sh *shard
	nc net.Conn
	// remote is the client's address, formatted on the loop the first
	// time an access-log line or a handler needs it (remoteAddr).
	remote string
	// ipKey is the remote IP under per-IP accounting (Config.
	// MaxConnsPerIP); "" otherwise. Guarded by Server.mu with the
	// registry.
	ipKey string

	reply    chan connReply // loop → conn goroutine (see connReply)
	done     chan struct{}  // closed on forced teardown (closeDone)
	doneOnce sync.Once
	// slots is how many batch slots the post in flight fills (takeHeads):
	// set by the goroutine before the post, read by the loop (runBatch).
	// It sits in doneOnce's padding.
	slots int32

	// rb[rs:re] is the pipelining carry-over window: bytes read past
	// the current request head. It is owned by the conn goroutine
	// between exchanges and by the request's bodyReader during one (the
	// conn goroutine is parked in await then), never both at once. The
	// backing array is reused ring-style: the window shifts to the
	// front in place when the tail runs out, and consumed-region bytes
	// ahead of rs absorb body pushbacks without reallocating. The
	// connection goroutine brings the ring and takes it on to its next
	// connection (Server.serveConns), unless ringLent (below): a body
	// reader was built over it.
	rb     []byte
	rs, re int

	// headBuf holds a copy of every request head of the current batch,
	// back to back; the recycled requests' zero-copy views point into
	// it. Copying the heads out of rb (typically well under 1 KB each)
	// is what makes the views immune to carry-over shifts and body
	// pushbacks during the exchange.
	headBuf []byte

	// The batch slots: slot 0 is plan0 with its request req, recycled
	// across this connection's exchanges; slots 1 to batchCap-1 live in
	// more, allocated the first time the connection pipelines. The
	// goroutine fills them (takeHeads) before the post and leaves them
	// alone until the batch's last reply.
	req   httpmsg.Request
	plan0 exchangePlan
	more  *batchSlots

	ls loopState // loop-owned, reset per exchange

	// Batch state on the loop. stageNext is set while the loop runs an
	// exchange of a batch that another exchange follows: a response
	// committed then is staged on the gather list rather than replied.
	// staged counts the responses staged since the last reply.
	stageNext bool
	staged    int32

	// Pooled response state (loop-owned): one exchange at a time runs
	// on a connection, so its chunk walk needs exactly one instance.
	chunkSrc chunkSource
	hdrBuf   []byte // scratch for per-request header patches

	// runChunks and runBodies back the chunks and bodies of the one
	// run the connection's chunk walk has out (see writeItem).
	runChunks []*cache.Chunk
	runBodies [][]byte

	// Gather state, owned by the conn goroutine — except while a batch
	// post is unanswered, when the goroutine is parked in await and the
	// loop stages committed responses here itself (conn.stage); the
	// post and the reply hand the list over and back. wb is the gather
	// list: the iovecs, in wire order, of the committed responses not
	// yet written — gatherBytes in total, gatherPins entries on the
	// loop's pin FIFO. Their inline bytes were copied into arena (the
	// original may alias header scratch the next exchange overwrites; a
	// wb entry keeps pointing at the right bytes when the arena grows,
	// because a grown arena is a new array and the old one is not
	// written again); chunk windows are never copied — the pin FIFO
	// keeps them alive until the flush is reported, and the iovecs are
	// copies of the slice headers, not of the run scratch the next walk
	// overwrites. writes counts the socket write calls made since the
	// last report to the loop. wfailed latches the first write error;
	// later items are reported back unwritten. wb0 is the gather list's
	// first backing array: a response's header and body — the whole
	// list of a connection that carries one request — gather without an
	// allocation.
	wb          [][]byte
	wb0         [2][]byte
	arena       []byte
	bufs        net.Buffers
	gatherBytes int
	gatherPins  int32
	writes      int32
	wfailed     bool
	// closing marks the connection's last flush (flushLast, or a last
	// item that ends the connection): its report rides the connEnd
	// message instead of one of its own, with endShort and endSfShort
	// its short figures (see transmit).
	closing  bool
	ringLent bool // the read ring stays with this connection (see rb)

	// Write-side state, loop-owned but connection-scoped: a response
	// restarted mid-exchange must still see that a write already failed
	// or that the write side is finished. inFlight marks a run whose
	// walk goes on once its flush is reported.
	inFlight  bool
	failed    bool
	writeDone bool // no further item will be accepted

	endShort, endSfShort int64

	// pins (loop-owned) is the FIFO of what committed responses whose
	// bytes the conn goroutine has not yet reported written still pin:
	// every chunk of each response's run, or one nil entry for a
	// response without chunks, oldest at pinHead. A released message
	// pops from the front; connEnd drains the rest. sf is the descriptor
	// reference of a committed sendfile window, dropped with its pins.
	pins    []*cache.Chunk
	pinHead int
	sf      *cache.FileRef

	// busy (loop-owned) marks an exchange in flight for the idle gauge:
	// set at exchange start, cleared at settle/signalNext/teardown.
	busy bool

	// parked is connParked while the conn goroutine waits for a request
	// head with nothing buffered (readHead); Shutdown swaps it to
	// connKicked and expires the read deadline (kickIdle), holding
	// kickMu across both so the goroutine can wait for the pair.
	parked atomic.Int32
	kickMu sync.Mutex
}

// States of conn.parked.
const (
	connActive = iota
	connParked
	connKicked
)

// aLongTimeAgo is a read deadline that has already passed: setting it
// ends a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

func newConn(sh *shard, nc net.Conn) *conn {
	c := &conn{
		sh:    sh,
		nc:    nc,
		reply: make(chan connReply, 1),
		done:  make(chan struct{}),
	}
	c.wb = c.wb0[:0]
	return c
}

// remoteAddr returns the client's address, formatting it on first use
// (loop context only).
func (c *conn) remoteAddr() string {
	if c.remote == "" {
		c.remote = c.nc.RemoteAddr().String()
	}
	return c.remote
}

// abort force-closes the connection (server shutdown, idle reaping).
func (c *conn) abort() {
	c.closeDone()
	c.nc.Close()
}

// closeDone closes c.done exactly once: abort may run more than once,
// from any goroutine.
func (c *conn) closeDone() {
	c.doneOnce.Do(func() { close(c.done) })
}

// tornDown reports whether the connection was torn down by force.
func (c *conn) tornDown() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// kickIdle ends the read of a connection parked between requests, for
// Shutdown: no exchange in flight, nothing unwritten (the gather list
// is flushed before that read) and no partial head buffered. A
// connection doing anything else is left to finish its exchange.
func (c *conn) kickIdle() {
	c.kickMu.Lock()
	if c.parked.CompareAndSwap(connParked, connKicked) {
		c.nc.SetReadDeadline(aLongTimeAgo)
	}
	c.kickMu.Unlock()
}

// window returns the unread carry-over bytes.
func (c *conn) window() []byte { return c.rb[c.rs:c.re] }

// consume advances past n carry-over bytes, rewinding the window to
// the front of the backing array once it empties.
func (c *conn) consume(n int) {
	c.rs += n
	if c.rs == c.re {
		c.rs, c.re = 0, 0
	}
}

// fillSpace returns writable space at the window's tail, shifting the
// window to the front of the backing array in place — or growing it,
// cold — when the tail is exhausted.
func (c *conn) fillSpace() []byte {
	if c.re == len(c.rb) {
		if c.rs > 0 {
			copy(c.rb, c.rb[c.rs:c.re])
			c.re -= c.rs
			c.rs = 0
		} else {
			nb := make([]byte, len(c.rb)*2)
			copy(nb, c.rb[:c.re])
			c.rb = nb
		}
	}
	return c.rb[c.re:]
}

// armRead arms the read deadline d from now.
func (c *conn) armRead(d time.Duration) {
	c.nc.SetReadDeadline(time.Now().Add(d))
}

// armWrite arms the write deadline d from now.
func (c *conn) armWrite(d time.Duration) {
	c.nc.SetWriteDeadline(time.Now().Add(d))
}

// readRaw fills p from the carry-over buffer, then the socket (used by
// body readers; the head parser manages the carry-over directly). A
// non-zero cap bounds the aggregate wait: the per-read deadline never
// extends past it, so a trickling peer cannot hold the exchange open
// by renewing the readTimeout one byte at a time.
func (c *conn) readRaw(p []byte, cap time.Time) (int, error) {
	if c.re > c.rs {
		n := copy(p, c.rb[c.rs:c.re])
		c.consume(n)
		return n, nil
	}
	d := time.Now().Add(readTimeout)
	if !cap.IsZero() {
		if !time.Now().Before(cap) {
			return 0, os.ErrDeadlineExceeded
		}
		if cap.Before(d) {
			d = cap
		}
	}
	c.nc.SetReadDeadline(d)
	return c.nc.Read(p)
}

// unread pushes bytes a body reader consumed past its framing back to
// the front of the carry-over (they belong to the next request). The
// consumed region ahead of the window absorbs them in place; only a
// pushback larger than everything consumed so far reallocates.
func (c *conn) unread(b []byte) {
	if len(b) == 0 {
		return
	}
	if c.rs >= len(b) {
		c.rs -= len(b)
		copy(c.rb[c.rs:], b)
		return
	}
	size := len(b) + c.re - c.rs
	nb := c.rb
	if size > len(nb) {
		nb = make([]byte, size)
	}
	// Copy the tail first: with a shared backing array the window moves
	// toward the back, so the regions cannot overlap destructively.
	copy(nb[len(b):size], c.rb[c.rs:c.re])
	copy(nb, b)
	c.rb, c.rs, c.re = nb, 0, size
}

// exchangePlan is the reader's pre-computed decision for one request:
// either a protocol-level rejection, a routed handler dispatch (with
// its body reader), or the static path (both nil). A plan without req
// is the rejection of a head that never parsed or outgrew
// httpmsg.MaxHeaderLen; its answer closes the connection.
type exchangePlan struct {
	req    *httpmsg.Request
	rt     *Route      // non-nil: dispatch to the v2 handler
	body   *bodyReader // non-nil: the request carries (or may carry) a body
	reject int         // non-zero: answer this status instead
	allow  string      // Allow header value for a 405 rejection
}

// batchSlots is batch slots 1 to batchCap-1 of a connection: their
// plans and the recycled requests the plans point at.
type batchSlots struct {
	plans [batchCap - 1]exchangePlan
	reqs  [batchCap - 1]httpmsg.Request
}

// slot returns batch slot i's plan and request, allocating slots 1 and
// up the first time the goroutine fills one; the loop reads only slots
// the goroutine has filled.
func (c *conn) slot(i int) (*exchangePlan, *httpmsg.Request) {
	if i == 0 {
		return &c.plan0, &c.req
	}
	if c.more == nil {
		c.more = new(batchSlots)
	}
	return &c.more.plans[i-1], &c.more.reqs[i-1]
}

// serve is the connection's goroutine, the only owner of the socket in
// both directions: it reads request heads, hands them to the event
// loop, writes what the loop hands back (awaitBatch), and goes on to
// the next head. Bytes read beyond one request's header block are
// kept, so a pipelined burst is consumed request by request without
// touching the socket, and responses leave in arrival order — exactly
// the in-order guarantee HTTP/1.1 pipelining requires. A blocked write
// blocks this goroutine and nothing else.
//
// Every head reaches the loop the same way: takeHeads fills the batch
// slots with the complete heads the carry-over holds, as far as they
// may join, and one message posts them, which the loop runs in order
// (runBatch). A lone exchange is a batch of one, so a warm burst costs
// one post and one reply rather than one of each per request. A head
// the reader refuses — one that does not parse, or outgrows
// httpmsg.MaxHeaderLen — is a rejection plan in its slot, the batch's
// last.
//
// Whole responses (the ones the loop replies with, and the ones it
// staged during a batch) are corked on the gather list and leave in
// one writev when no complete next head is buffered — always before
// the socket read that could block — when the next one would take the
// list past gatherCap, when the connection ends, or ahead of any other
// item, which rides behind them in the same call. Nothing may overtake
// or strand them: a handler exchange (whose goroutine writes its
// response, 100 Continue and interim responses straight to the socket)
// is posted only after a flush, and so is the body drain that follows
// one.
//
// Request bodies are consumed by the handler (through the plan's
// bodyReader) while this goroutine is parked in awaitBatch; whatever
// is left unread is drained here before the next head is parsed,
// keeping pipelined framing intact.
func (c *conn) serve() {
	defer func() {
		c.nc.Close()
		c.sh.send(loopMsg{kind: msgConnEnd, c: c, short: c.endShort,
			sfShort: c.endSfShort, writes: c.takeWrites(), ok: !c.wfailed})
	}()

	for {
		// Tolerate stray blank lines before a request (clients
		// historically sent an extra CRLF after a request), but count
		// the stripped bytes toward the header cap — otherwise a client
		// trickling CRLFs forever would never trip it.
		preamble := 0
		c.skipBlank(&preamble)
		// Accumulate one complete request head (a terminated header
		// block, or an HTTP/0.9 simple request) at the head of the
		// carry-over window, or stop when what is buffered has outgrown
		// the cap. When it takes the socket, what is corked leaves
		// first: the read may block. The first read waits up to
		// IdleTimeout, each one after a read that left the head
		// incomplete up to readTimeout.
		end := httpmsg.RequestEnd(c.window())
		if end < 0 {
			if !c.flush() {
				return
			}
			c.armRead(c.sh.cfg.IdleTimeout)
		}
		for end < 0 && c.re-c.rs+preamble <= httpmsg.MaxHeaderLen {
			n, err := c.readHead()
			if n > 0 {
				c.re += n
				c.skipBlank(&preamble)
			}
			if err != nil {
				return // EOF or timeout between requests
			}
			if end = httpmsg.RequestEnd(c.window()); end < 0 && n > 0 {
				c.armRead(readTimeout)
			}
		}

		c.takeHeads(end, preamble)
		if !batchable(c.plan0) && !c.flush() {
			return
		}
		keep := c.awaitBatch()
		if body := c.plan0.body; body != nil && keep {
			// The handler may have left body bytes on the wire; the next
			// head cannot be parsed until they are gone.
			keep = c.flush() && body.drain()
		}
		if !keep {
			return
		}
	}
}

// readHead reads more of a request head from the socket. A read with
// nothing buffered is the one a connection parked between requests
// waits in, and Shutdown ends it (kickIdle): the connection closes then
// — with io.EOF, at once if Shutdown has already begun — unless bytes
// came in with the kick, whose request is served as usual.
func (c *conn) readHead() (int, error) {
	if c.rs != c.re {
		return c.nc.Read(c.fillSpace())
	}
	c.parked.Store(connParked)
	if c.sh.srv.stopping.Load() {
		return 0, io.EOF
	}
	n, err := c.nc.Read(c.fillSpace())
	if c.parked.CompareAndSwap(connParked, connActive) {
		return n, err
	}
	// Kicked. Wait until the expired deadline is in place, so that the
	// deadline armed from here on is the one that stands.
	c.kickMu.Lock()
	c.kickMu.Unlock()
	c.parked.Store(connActive)
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// skipBlank strips CR/LF bytes at the head of the carry-over window,
// counting them into *preamble.
func (c *conn) skipBlank(preamble *int) {
	for c.rs < c.re && (c.rb[c.rs] == '\r' || c.rb[c.rs] == '\n') {
		c.rs++
		*preamble++
	}
	if c.rs == c.re {
		c.rs, c.re = 0, 0
	}
}

// batchable reports whether a plan may join a batch: only plans that
// post without a flush — the static path and the reader's rejections,
// which neither read a body nor write past the gather list.
func batchable(plan exchangePlan) bool {
	return plan.rt == nil && plan.body == nil
}

// takeHeads fills the batch slots for one post and sets c.slots. Slot
// 0 takes the head of length end at the front of the carry-over, which
// preamble stripped blank-line bytes preceded (end < 0: the head is
// incomplete and has outgrown httpmsg.MaxHeaderLen). Each head is
// copied into headBuf, parsed zero-copy into its slot's recycled
// request and planned; the views stay valid for the whole batch
// because nothing touches headBuf until the next takeHeads, after the
// loop has settled the responses. A head longer than
// httpmsg.MaxHeaderLen (its preamble counted) gets a 400 plan, one that
// does not parse a 400, 414 or 501 plan — rejections without a
// request, which end the batch.
//
// A complete follower joins while every request before it keeps the
// connection alive and has a batchable plan, and the batch has room
// (batchCap). A follower that routes to a handler stays in the
// carry-over unplanned, to be taken as the next batch's slot 0, so a
// handler's body reader is built once, when its exchange is posted.
func (c *conn) takeHeads(end, preamble int) {
	c.headBuf = c.headBuf[:0]
	p := c.rs
	for n := 0; ; {
		plan, req := c.slot(n)
		next := exchangePlan{reject: 400}
		if end >= 0 && end+preamble <= httpmsg.MaxHeaderLen {
			off := len(c.headBuf)
			c.headBuf = append(c.headBuf, c.rb[p:p+end]...)
			req.Reset()
			switch err := req.ParseBytes(c.headBuf[off:]); err {
			case nil:
				rt, allow := c.sh.srv.routes.match(req.Method, req.Path)
				if rt != nil && n > 0 {
					return // a handler follower waits for a batch of its own
				}
				next = c.planRoute(req, rt, allow)
			case httpmsg.ErrTargetTooBig:
				next.reject = 414
			case httpmsg.ErrUnsupported:
				next.reject = 501
			}
		}
		if end >= 0 {
			c.consume(p + end - c.rs)
		}
		*plan = next
		n++
		c.slots = int32(n)
		if n == batchCap || !batchable(next) || next.req == nil || !next.req.KeepAlive {
			return
		}
		p = c.rs
		for p < c.re && (c.rb[p] == '\r' || c.rb[p] == '\n') {
			p++ // blank lines between requests, as skipBlank strips them
		}
		preamble = p - c.rs
		if end = httpmsg.RequestEnd(c.rb[p:c.re]); end < 0 {
			return
		}
	}
}

// awaitBatch posts the filled batch slots as one message and serves the
// loop's replies — corking a whole response, writing any other item at
// once — until the batch is over: its last exchange has ended, or one
// ended the connection (later heads are never answered). Each reply
// counts the responses the loop staged on the gather list ahead of it,
// exchanges of the batch that are over. An exchange that ended before
// the batch was through — one that had to wait for a helper, a fill or
// a write, or whose response did not fit under gatherCap — leaves the
// rest of the batch to a continuation, posted here. It reports whether
// the connection persists.
func (c *conn) awaitBatch() bool {
	c.sh.postBatch(c, 0)
	for done := 0; ; {
		var r connReply
		select {
		case r = <-c.reply:
		case <-c.done:
			return false
		}
		done += int(r.staged)
		keep := r.keep
		switch {
		case r.kind == replyEnd:
			if !keep {
				c.flushLast() // earlier responses still leave before the close
			}
		case r.item.whole:
			keep = c.cork(&r.item, keep)
		default:
			// The report of a last item that ends the connection rides
			// the connection's end.
			c.closing = r.item.last && !keep
			if !c.transmit(&r.item) {
				return false
			}
			if !r.item.last {
				continue // the loop answers the report with the next run
			}
		}
		if done++; !keep || done == int(c.slots) {
			return keep
		}
		c.sh.postBatch(c, done)
	}
}

// planRoute classifies one parsed request once the route lookup is
// done (rt and allow are what the router answered for req): body
// framing, Expect handling and size limits, producing either a
// rejection or a dispatch plan. Runs on the conn goroutine; the route
// table is immutable once the server starts, so the lookup is
// lock-free.
func (c *conn) planRoute(req *httpmsg.Request, rt *Route, allow string) exchangePlan {
	cfg := c.sh.cfg
	plan := exchangePlan{req: req}

	kind, clen, ferr := req.BodyFraming()
	if ferr != nil {
		plan.reject = 400
		if ferr == httpmsg.ErrBadTransferEncoding {
			plan.reject = 501
		}
		req.KeepAlive = false // framing unknown: resync is impossible
		return plan
	}
	hasBody := kind != httpmsg.BodyNone

	expectContinue := false
	if req.HasExpectation() {
		if !req.ExpectsContinue() && req.Major == 1 && req.Minor >= 1 {
			// An expectation this server does not implement (RFC 7231
			// §5.1.1 allows only 100-continue).
			plan.reject = 417
			if hasBody {
				req.KeepAlive = false
			}
			return plan
		}
		expectContinue = req.ExpectsContinue()
	}

	if rt == nil {
		if allow == "" && (req.Method == "GET" || req.Method == "HEAD") {
			// Static path. Bodied GET/HEAD requests are refused as
			// before: the static planner never reads bodies, and an
			// unread body would desynchronize the pipelined framing.
			if hasBody {
				plan.reject = 413
				if kind == httpmsg.BodyChunked {
					plan.reject = 501
				}
				req.KeepAlive = false
			}
			return plan
		}
		if allow == "" {
			allow = "GET, HEAD" // static resources answer GET and HEAD
		}
		plan.reject = 405
		plan.allow = allow
		if hasBody {
			req.KeepAlive = false
		}
		return plan
	}

	plan.rt = rt
	maxBody := cfg.MaxBodyBytes
	if rt.MaxBodyBytes != 0 {
		maxBody = rt.MaxBodyBytes
	}
	if kind == httpmsg.BodyLength && maxBody > 0 && clen > maxBody {
		// Refused up front — and deliberately without a 100 Continue,
		// the RFC's reject-without-continue path. The unsent body makes
		// the connection unusable afterwards.
		plan.reject = 413
		plan.rt = nil
		req.KeepAlive = false
		return plan
	}
	if _, declared := req.Header("content-length"); kind == httpmsg.BodyNone &&
		!declared && methodRequiresLength(req.Method) {
		// A payload method with neither Content-Length nor chunked
		// framing: require a length rather than guessing (RFC 7230
		// §3.3.3 would read this as "no body", which is never what a
		// POST meant). An explicit "Content-Length: 0" is a declared —
		// empty — body and passes through.
		plan.reject = 411
		plan.rt = nil
		return plan
	}
	if hasBody || expectContinue {
		plan.body = newBodyReader(c, kind, clen, maxBody, expectContinue)
		c.ringLent = true
	}
	return plan
}

// methodRequiresLength lists the methods whose requests are defined by
// their payload; without any body framing they draw a 411.
func methodRequiresLength(method string) bool {
	switch method {
	case "POST", "PUT", "PATCH":
		return true
	}
	return false
}

// cork appends a committed response to the gather list — after
// flushing what is already there when the two together would pass
// gatherCap — and flushes the list when the connection ends with this
// response. It reports whether the connection goes on.
func (c *conn) cork(item *writeItem, keep bool) bool {
	if !c.fits(item) && !c.flush() {
		return false
	}
	c.stage(item)
	if !keep {
		c.flushLast()
	}
	return keep
}

// fits reports whether item can join the gather list without taking it
// past gatherCap (an empty list takes any one response).
func (c *conn) fits(item *writeItem) bool {
	return c.gatherBytes == 0 || c.gatherBytes+item.wireLen() <= gatherCap
}

// stage appends a committed response to the gather list: its inline
// bytes copied into the arena, its chunk windows as iovecs, its pins
// counted. The conn goroutine stages what it corks; the loop stages
// during a batch, while the goroutine waits for the reply.
func (c *conn) stage(item *writeItem) {
	c.wb = appendIovecs(c.wb, c.arenaCopy(item.data), item.bodies)
	c.gatherBytes += item.wireLen()
	c.gatherPins += int32(item.pins())
}

// arenaCopy copies a corked response's inline bytes into the arena and
// returns the copy.
func (c *conn) arenaCopy(data []byte) []byte {
	off := len(c.arena)
	c.arena = append(c.arena, data...)
	return c.arena[off:len(c.arena):len(c.arena)]
}

// appendIovecs appends an item's non-empty pieces in wire order.
func appendIovecs(wb [][]byte, data []byte, bodies [][]byte) [][]byte {
	if len(data) > 0 {
		wb = append(wb, data)
	}
	for _, b := range bodies {
		if len(b) > 0 {
			wb = append(wb, b)
		}
	}
	return wb
}

// flush writes the gather list, if any; false means the connection's
// write side has failed.
func (c *conn) flush() bool {
	if c.gatherPins == 0 {
		return !c.wfailed
	}
	return c.transmit(nil)
}

// flushLast writes the gather list as the connection ends. Its report
// — the pins come off in connEnd anyway — rides the connection's end.
func (c *conn) flushLast() {
	c.closing = true
	c.flush()
}

// takeWrites returns the socket write calls made since the last report
// to the loop (folded into Stats.GatherWrites there).
func (c *conn) takeWrites() int32 {
	n := c.writes
	c.writes = 0
	return n
}

// transmit performs the (potentially blocking) socket transmission, so
// the event loop never does: every corked response, then — riding
// behind them in the same writev — item's inline bytes and chunk
// windows, then item's descriptor window by sendfile or the copy loop.
// All of it is reported to the loop in one released message, or in the
// connEnd message of a closing connection: the pin FIFO entries
// written, the committed bytes left unwritten (short) and the part of
// the descriptor window sendfile did not move (sfShort). After a write
// error nothing more is written, and the report says so; the loop
// releases the pins all the same. The gather list is conn-owned
// scratch: a steady-state flush allocates nothing.
func (c *conn) transmit(item *writeItem) bool {
	wb, pins, want := c.wb, c.gatherPins, int64(c.gatherBytes)
	if item != nil {
		wb = appendIovecs(wb, item.data, item.bodies)
		pins += int32(item.pins())
		want += int64(item.wireLen()) + item.sfLen
	}
	if !c.wfailed && failpoint.Armed() {
		if err := fpConnWrite.Eval(c.nc.RemoteAddr().String()); err != nil {
			c.wfailed = true
		}
	}
	var wrote int64
	if !c.wfailed && len(wb) > 0 {
		c.armWrite(c.sh.cfg.WriteTimeout)
		c.writes++
		var err error
		if len(wb) == 1 {
			var n int
			n, err = c.nc.Write(wb[0])
			wrote = int64(n)
		} else {
			c.bufs = net.Buffers(wb)
			wrote, err = c.bufs.WriteTo(c.nc)
		}
		if err != nil {
			c.wfailed = true
		}
	}
	clear(wb) // drop the chunk and arena references
	c.wb = wb[:0]

	var sfShort int64
	if item != nil && item.sf != nil {
		// The header went out above; now the descriptor window —
		// zero-copy where the platform supports it.
		sfShort = item.sfLen
		if !c.wfailed {
			c.writes++
			n, sfn, err := transportSend(c.nc, item.sf.File(),
				item.sfOff, item.sfLen, c.sh.cfg.WriteTimeout)
			wrote += n
			sfShort -= sfn
			if err != nil {
				c.wfailed = true
			}
		}
	}

	if c.closing {
		c.endShort += want - wrote
		c.endSfShort += sfShort
	} else {
		c.sh.send(loopMsg{kind: msgReleased, c: c, n: pins, short: want - wrote,
			sfShort: sfShort, writes: c.takeWrites(), ok: !c.wfailed})
	}
	c.gatherBytes, c.gatherPins = 0, 0
	if cap(c.arena) > gatherCap {
		c.arena = nil // one oversized inline body must not stay allocated
	}
	c.arena = c.arena[:0]
	return !c.wfailed
}
