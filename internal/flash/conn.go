package flash

import (
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
	"repro/internal/httpmsg"
)

// fpConnWrite injects into response transmission (args: remote addr).
// Under the goroutine engine a latency hook stalls the connection's
// goroutine — a simulated slow client — while an error hook fails the
// write. The epoll engine transmits on the shard loop, so only error
// hooks are sensible there (a sleeping hook would stall the shard, by
// design visible in chaos drills).
var fpConnWrite = failpoint.New("flash/conn-write")

// writeItem is the pipeline's wire format: one unit of work handed
// from a response's bodySource to whoever owns the socket (the
// connection's goroutine, or the shard loop under epoll). It is
// transmitted in order: the inline bytes (header, error body, dynamic
// data), then the chunk windows — all gathered into a single writev,
// the §5.5 pattern — and then, for the zero-copy transport, the
// descriptor window [sfOff, sfOff+sfLen) shipped with sendfile(2) (or
// the portable copy loop). Sources produce items one at a time; `last`
// marks the response's final item. Items travel by value — through the
// reply channel and back through the loop's typed itemDone message —
// so the per-item traffic allocates nothing.
type writeItem struct {
	data []byte
	// chunks is the run of consecutive pinned chunks the item carries
	// and bodies[i] the bytes of chunks[i] to transmit — a sub-slice of
	// its Data where a Range request clamps the window. Both live in
	// the connection's loop-written scratch (conn.runChunks/runBodies),
	// which the source does not touch again before the item is
	// released: whoever receives the item copies out what it keeps.
	chunks []*cache.Chunk
	bodies [][]byte
	// sf, when non-nil, is an acquired descriptor reference whose
	// [sfOff, sfOff+sfLen) byte window the writer ships after data.
	sf           *cache.FileRef
	sfOff, sfLen int64
	last         bool // response ends after this item
	// whole marks an item that is its response's only one (set by the
	// source together with last): the goroutine engine commits such a
	// response the moment it is queued (shard.commit).
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
// goroutine. Every post the goroutine makes — an exchange, or the
// itemDone report of a written item — is answered by exactly one
// reply, which the goroutine consumes before it posts again; that is
// what keeps the loop's send on the capacity-1 channel from ever
// blocking.
type connReply struct {
	item writeItem // replyItem, replyCommitted
	kind uint8
	keep bool // replyCommitted, replyEnd: the connection persists
}

const (
	// replyItem: write the item, report itemDone, wait for the next
	// reply.
	replyItem = iota
	// replyCommitted: the item is the whole response and the loop has
	// already settled the exchange; cork it and go on to the next head.
	replyCommitted
	// replyEnd: the exchange is over (its items, if any, were all
	// written and reported).
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

// loopState is the per-response state owned by the event loop. It is
// reset at the start of every exchange; write-side state that must
// survive mid-exchange resets (request restarts, reader rejections)
// lives on conn instead.
type loopState struct {
	req       *httpmsg.Request
	src       bodySource // produces the response's items
	status    int
	bytesSent int64
}

// conn is one client connection: one goroutine (the serve method) that
// owns the socket in both directions, and loop-owned state. Everything
// a steady-state exchange needs — read buffer, head buffer, parsed
// request, response sources, header scratch, gather list — is owned by
// the connection and recycled across exchanges, so a warm keep-alive
// request touches no allocator at all.
type conn struct {
	sh     *shard
	nc     net.Conn
	remote string // RemoteAddr().String(), computed once for logging
	// ipKey is the remote IP under per-IP accounting (Config.
	// MaxConnsPerIP); "" otherwise. Guarded by Server.mu with the
	// registry.
	ipKey string

	reply    chan connReply // loop → conn goroutine (see connReply)
	done     chan struct{}  // closed on forced teardown (closeDone)
	doneOnce sync.Once

	// rb[rs:re] is the pipelining carry-over window: bytes read past
	// the current request head. It is owned by the conn goroutine
	// between exchanges and by the request's bodyReader during one (the
	// conn goroutine is parked in await then), never both at once. The
	// backing array is reused ring-style: the window shifts to the
	// front in place when the tail runs out, and consumed-region bytes
	// ahead of rs absorb body pushbacks without reallocating.
	rb     []byte
	rs, re int

	// headBuf holds a copy of the current request head; the recycled
	// request's zero-copy views point into it. Copying the head out of
	// rb (typically well under 1 KB) is what makes the views immune to
	// carry-over shifts and body pushbacks during the exchange.
	headBuf []byte
	req     httpmsg.Request // recycled across this connection's exchanges

	ls loopState // loop-owned, reset per exchange

	// Pooled response state (loop-owned): one exchange at a time runs
	// on a connection, so each source form needs exactly one instance.
	fixedSrc fixedSource
	chunkSrc chunkSource
	sfSrc    sendfileSource
	hdrBuf   []byte // scratch for per-request header patches

	// runChunks and runBodies back the chunks and bodies of the one
	// item the connection's chunkSource has out (see writeItem).
	runChunks []*cache.Chunk
	runBodies [][]byte

	// Gather state, owned by the conn goroutine. wb is the gather list:
	// the iovecs, in wire order, of the committed responses not yet
	// written — gatherBytes in total, gatherPins entries on the loop's
	// pin FIFO. Their inline bytes were copied into arena (the original
	// may alias header scratch the next exchange overwrites; a wb entry
	// keeps pointing at the right bytes when the arena grows, because a
	// grown arena is a new array and the old one is not written again);
	// chunk windows are never copied — the pin FIFO keeps them alive
	// until the flush is reported. writes counts the socket write calls
	// made since the last report to the loop. wfailed latches the first
	// write error; later items are reported back unwritten.
	wb          [][]byte
	arena       []byte
	gatherBytes int
	gatherPins  int32
	bufs        net.Buffers
	writes      int32
	wfailed     bool

	// Armed deadlines in unix nanos, for the coarse-clock skip logic
	// (readArm: conn/body goroutine; writeArm: conn goroutine).
	readArm  int64
	writeArm int64

	// Write-side state, also loop-owned but connection-scoped: a
	// response restarted mid-exchange must still see that a write
	// already failed or that the write side is finished.
	inFlight  bool
	failed    bool
	writeDone bool // no further item will be accepted

	// pins (loop-owned) is the FIFO of what committed responses whose
	// bytes the conn goroutine has not yet reported written still pin:
	// every chunk of each response's run, or one nil entry for a
	// response without chunks, oldest at pinHead. A released message
	// pops from the front; connEnd drains the rest.
	pins    []*cache.Chunk
	pinHead int

	// busy (loop-owned) marks an exchange in flight for the idle gauge:
	// set at exchange start, cleared at commit/signalNext/teardown.
	busy bool

	// np is the connection's epoll-engine state (ConnEngineEpoll);
	// nil under the goroutine engine. When set, reply is nil and no
	// goroutine exists: the shard's readiness loop drives the exchange
	// instead (netpoll_linux.go).
	np *npConn
}

func newConn(sh *shard, nc net.Conn) *conn {
	return &conn{
		sh:     sh,
		nc:     nc,
		remote: nc.RemoteAddr().String(),
		reply:  make(chan connReply, 1),
		done:   make(chan struct{}),
		rb:     make([]byte, 4096),
	}
}

// abort force-closes the connection (server shutdown, idle reaping).
func (c *conn) abort() {
	c.closeDone()
	c.nc.Close()
}

// closeDone closes c.done exactly once: abort (any goroutine) and the
// epoll loop's teardown may both get there.
func (c *conn) closeDone() {
	c.doneOnce.Do(func() { close(c.done) })
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

// armRead arms the read deadline d from now. Long timeouts go through
// the shard's coarse clock and skip the SetReadDeadline syscall while
// the armed deadline is within deadlineSlack of the ideal one (so a
// keep-alive burst arms the deadline once, not once per read); short
// timeouts keep exact time.Now semantics.
func (c *conn) armRead(d time.Duration) {
	if d < coarseMinTimeout {
		dl := time.Now().Add(d)
		c.readArm = dl.UnixNano()
		c.nc.SetReadDeadline(dl)
		return
	}
	want := c.sh.clock.Load() + int64(d)
	// Skip the syscall only while the armed deadline is later than the
	// ideal one by at most deadlineSlack: deadlines may fire early by
	// that much, never late (a shorter timeout always re-arms).
	if diff := want - c.readArm; diff > int64(deadlineSlack) || diff < 0 {
		c.readArm = want
		c.nc.SetReadDeadline(time.Unix(0, want))
	}
}

// armWrite is armRead for the write deadline.
func (c *conn) armWrite(d time.Duration) {
	if d < coarseMinTimeout {
		dl := time.Now().Add(d)
		c.writeArm = dl.UnixNano()
		c.nc.SetWriteDeadline(dl)
		return
	}
	want := c.sh.clock.Load() + int64(d)
	if diff := want - c.writeArm; diff > int64(deadlineSlack) || diff < 0 {
		c.writeArm = want
		c.nc.SetWriteDeadline(time.Unix(0, want))
	}
}

// readRaw fills p from the carry-over buffer, then the socket (used by
// body readers; the head parser manages the carry-over directly). A
// non-zero cap bounds the aggregate wait: the per-read deadline never
// extends past it, so a trickling peer cannot hold the exchange open
// by renewing the ReadTimeout one byte at a time.
func (c *conn) readRaw(p []byte, cap time.Time) (int, error) {
	if c.re > c.rs {
		n := copy(p, c.rb[c.rs:c.re])
		c.consume(n)
		return n, nil
	}
	d := time.Now().Add(c.sh.cfg.ReadTimeout)
	if !cap.IsZero() {
		if !time.Now().Before(cap) {
			return 0, os.ErrDeadlineExceeded
		}
		if cap.Before(d) {
			d = cap
		}
	}
	c.readArm = d.UnixNano()
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
// its body reader), or the static path (both nil).
type exchangePlan struct {
	req    *httpmsg.Request
	rt     *Route      // non-nil: dispatch to the v2 handler
	body   *bodyReader // non-nil: the request carries (or may carry) a body
	reject int         // non-zero: answer this status instead
	allow  string      // Allow header value for a 405 rejection
}

// serve is the connection's goroutine, the only owner of the socket in
// both directions: it parses a request head, hands the exchange to the
// event loop, writes what the loop hands back (await), and goes on to
// the next head. Bytes read beyond one request's header block are
// kept, so a pipelined burst is consumed request by request without
// touching the socket, and responses leave in arrival order — exactly
// the in-order guarantee HTTP/1.1 pipelining requires. A blocked write
// blocks this goroutine and nothing else.
//
// Responses the loop committed whole (replyCommitted) are corked on
// the gather list and leave in one writev when no complete next head is
// buffered — always before the socket read that could block — when the
// next one would take the list past gatherCap, when the connection
// ends, or ahead of anything that is not a committed response. Nothing may overtake or
// strand them: a handler exchange (whose 100 Continue and interim
// responses go straight to the socket) is posted only after a flush,
// and so is the body drain that follows one.
//
// Request bodies are consumed by the handler (through the plan's
// bodyReader) while this goroutine is parked in await; whatever is
// left unread is drained here before the next head is parsed, keeping
// pipelined framing intact.
//
// Each head is copied from the carry-over into the connection's
// reusable head buffer and parsed zero-copy into the recycled request:
// the views stay valid for the whole exchange because nothing touches
// headBuf until the next head is copied in — which happens only after
// the loop has settled the response.
func (c *conn) serve() {
	defer func() {
		c.nc.Close()
		c.sh.post(func() { c.sh.connEnd(c) })
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
		// carry-over window. When it takes the socket to get one, what
		// is corked leaves first: the read may block.
		end := httpmsg.RequestEnd(c.window())
		if end < 0 {
			if !c.flush() {
				return
			}
			c.armRead(c.sh.cfg.IdleTimeout)
		}
		for end < 0 {
			if c.re-c.rs+preamble > c.sh.cfg.MaxHeaderBytes {
				c.sh.post(func() { c.sh.rejectRequest(c, nil, 400) })
				c.await()
				return
			}
			n, err := c.nc.Read(c.fillSpace())
			if n > 0 {
				c.re += n
				c.armRead(c.sh.cfg.ReadTimeout)
				c.skipBlank(&preamble)
			}
			if err != nil {
				return // EOF or timeout between requests
			}
			end = httpmsg.RequestEnd(c.window())
		}
		// Copy the head out of the carry-over so the zero-copy views
		// survive any buffer traffic the exchange causes, then parse
		// into the recycled request.
		c.headBuf = append(c.headBuf[:0], c.rb[c.rs:c.rs+end]...)
		c.consume(end) // keep pipelined followers (or body bytes)
		c.req.Reset()
		if err := c.req.ParseBytes(c.headBuf); err != nil {
			status := 400
			if err == httpmsg.ErrTargetTooBig {
				status = 414
			} else if err == httpmsg.ErrUnsupported {
				status = 501
			}
			c.sh.post(func() { c.sh.rejectRequest(c, nil, status) })
			c.await()
			return
		}

		plan := c.planExchange(&c.req)
		if (plan.rt != nil || plan.body != nil) && !c.flush() {
			return
		}
		c.sh.postExchange(c, plan)
		keep := c.await()
		if plan.body != nil && keep {
			// The handler may have left body bytes on the wire; the next
			// head cannot be parsed until they are gone.
			keep = c.flush() && plan.body.drain()
		}
		if !keep {
			return
		}
	}
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

// planExchange classifies one parsed request: body framing, Expect
// handling, route lookup, and size limits, producing either a
// rejection or a dispatch plan. Runs on the conn goroutine; the
// route table is immutable once the server starts, so the lookup is
// lock-free.
func (c *conn) planExchange(req *httpmsg.Request) exchangePlan {
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

	rt, allow := c.sh.srv.routes.match(req.Method, req.Path)
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

// await serves the loop's replies to the post just made — writing the
// items of a response the loop is still driving, corking one it has
// committed — until the exchange is over, and reports whether the
// connection persists.
func (c *conn) await() bool {
	for {
		var r connReply
		select {
		case r = <-c.reply:
		case <-c.done:
			return false
		}
		switch r.kind {
		case replyCommitted:
			return c.cork(&r.item, r.keep)
		case replyEnd:
			if !r.keep {
				c.flush() // earlier responses still leave before the close
			}
			return r.keep
		}
		wrote, sfWrote, ok := c.transmit(&r.item)
		c.sh.postItemDone(c, r.item, wrote, sfWrote, c.takeWrites(), ok)
	}
}

// cork appends a committed response to the gather list — after
// flushing what is already there when the two together would pass
// gatherCap — and flushes the list when the connection ends with this
// response. It reports whether the connection goes on.
func (c *conn) cork(item *writeItem, keep bool) bool {
	n := item.wireLen()
	if c.gatherBytes > 0 && c.gatherBytes+n > gatherCap && !c.flush() {
		return false
	}
	c.wb = appendIovecs(c.wb, c.arenaCopy(item.data), item.bodies)
	c.gatherBytes += n
	c.gatherPins += int32(item.pins())
	if !keep {
		c.flush()
	}
	return keep
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
	_, _, ok := c.transmit(nil)
	return ok
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
// The flushed responses are reported to the loop in one released
// message (it drops their pins; a shortfall against the byte counts
// they were committed with fails the connection there), and item's own
// byte counts are returned for its itemDone. After a write error
// nothing more is written: items are still reported back, unwritten,
// so their sources release what they carry. The gather list is
// conn-owned scratch: a steady-state flush allocates nothing.
func (c *conn) transmit(item *writeItem) (wrote, sfWrote int64, ok bool) {
	wb := c.wb
	if item != nil {
		wb = appendIovecs(wb, item.data, item.bodies)
	}
	if !c.wfailed && failpoint.Armed() {
		if err := fpConnWrite.Eval(c.remote); err != nil {
			c.wfailed = true
		}
	}
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

	if c.gatherPins > 0 {
		// The corked responses come first on the wire: what was written
		// counts against them before it counts for item.
		short := int64(c.gatherBytes)
		if wrote < short {
			short, wrote = short-wrote, 0
		} else {
			short, wrote = 0, wrote-short
		}
		c.sh.send(loopMsg{kind: msgReleased, c: c, n: c.gatherPins, short: short,
			writes: c.takeWrites(), ok: !c.wfailed})
		c.gatherBytes, c.gatherPins = 0, 0
		if cap(c.arena) > gatherCap {
			c.arena = nil // one oversized inline body must not stay allocated
		}
		c.arena = c.arena[:0]
	}

	if item != nil && item.sf != nil && !c.wfailed {
		// Transport item: the header went out above; now the descriptor
		// window — zero-copy where the platform supports it.
		c.writes++
		n, sfn, err := transportSend(c.nc, item.sf.File(),
			item.sfOff, item.sfLen, c.sh.cfg.WriteTimeout)
		wrote, sfWrote = wrote+n, sfn
		if err != nil {
			c.wfailed = true
		}
	}
	return wrote, sfWrote, !c.wfailed
}
