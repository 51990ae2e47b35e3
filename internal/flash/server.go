package flash

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
	"repro/internal/httpmsg"
	"repro/internal/upstream"
)

// Failpoints in the accept path (see internal/failpoint). fpAccept is
// evaluated once per accepted connection; a returned EMFILE/ENFILE is
// treated exactly like the kernel refusing the accept, any other error
// drops the connection. fpConnAlloc simulates allocation pressure
// while building per-connection state: an error closes the fresh
// connection before a conn object exists.
var (
	fpAccept    = failpoint.New("flash/accept")
	fpConnAlloc = failpoint.New("flash/conn-alloc")
)

// Stats is a snapshot of server counters. Server.Stats merges the
// per-shard snapshots; Server.ShardStats exposes them individually.
type Stats struct {
	Accepted  uint64
	Active    int
	Responses uint64
	NotFound  uint64
	Errors    uint64
	BytesSent int64
	// BytesSendfile and BytesCopied split BytesSent by transport: bytes
	// the kernel moved with sendfile(2) versus bytes copied through
	// userspace (headers, chunk-cache bodies, dynamic output, and the
	// portable fallback on platforms without sendfile). A static
	// response's bytes are counted when the loop commits them and
	// corrected by the flush report (a short write, the copy fallback),
	// so BytesSent is BytesSendfile plus BytesCopied at every snapshot.
	BytesSendfile int64
	BytesCopied   int64
	// GatherWrites counts the socket write calls issued for responses —
	// write, writev and each sendfile transfer, a handler goroutine's
	// own writes (interim responses included) — so GatherWrites over
	// Responses is the server-side "writes per response": 1 for a
	// client that waits for each reply, well under 1 for a pipelined
	// burst whose responses the connection gathers. A call the kernel
	// splits under backpressure counts once.
	GatherWrites uint64
	// LoopMsgs counts the mailbox messages the event loops dispatched:
	// batch posts and their continuations, flush reports, handler ends,
	// connection ends, helper completions — every one but the snapshots
	// that read the counters. LoopMsgs over Responses is the hand-off
	// cost per response: about 2 for a client that waits for each reply
	// (a batch of one and a flush report, or a handler's post and its
	// end, whatever the response's size), far less for a pipelined
	// burst, whose complete heads reach the loop in one post, and
	// exactly 2 for a connection that carries one static request (its
	// post, and the connection's end with its last flush report).
	LoopMsgs uint64
	// OpenConns and IdleConns are point-in-time gauges of the shard's
	// connections: open counts every adopted conn whose end the loop has
	// not yet run, idle the subset with no exchange in flight.
	OpenConns  int
	IdleConns  int
	HelperJobs uint64
	// FileMaps and FileUnmaps count the mmap(2) and munmap(2) calls made
	// for served files (server-wide Stats only): one pair per file
	// generation that was ever filled — the mapping is parked on the
	// path entry's descriptor, so neither moves while a working set
	// churns through the chunk budget. MapFallbacks counts chunk and
	// fill jobs that read their bytes because the file could not be
	// mapped (always, off Linux). ZapSpans counts the stretches of
	// evicted chunk pages given back to the kernel and ZapCalls the
	// system calls that dropped them: ZapSpans/ZapCalls is the zap
	// batch size, 1 where the kernel cannot batch.
	FileMaps     uint64
	FileUnmaps   uint64
	MapFallbacks uint64
	ZapSpans     uint64
	ZapCalls     uint64
	PathCache    cache.Stats
	HeaderCache  cache.Stats
	// MapCache counts chunk lookups: in a per-shard snapshot, every
	// lookup that shard's loop made, as a hit or a miss; in the
	// server-wide Stats it additionally folds in the shared segment
	// tier's counters, so MapCache minus SharedChunks is the server's
	// lookup count.
	MapCache cache.MapCacheStats
	// SharedChunks is the shared segment tier alone (chunk bytes held
	// once for all shards); server-wide Stats only.
	SharedChunks cache.MapCacheStats
	// Fills counts the single-flight fill lifecycle (server-wide): one
	// fill per disk pass, and one per origin exchange of a proxied key.
	Fills        cache.FillStats
	DynamicCalls uint64
	// Reverse-proxy tier counters (zero unless HandleProxy mounted a
	// pool): ProxyRequests counts every request routed to a proxy
	// mount; ProxyHits the subset served from a fresh cached entry
	// (shared by every loop) without any origin traffic;
	// ProxyRevalidated origin 304s that refreshed an entry; ProxyFills
	// origin bodies fetched with a new entry; ProxyPassThrough requests
	// relayed without caching; ProxyErrors requests answered 502/504.
	ProxyRequests    uint64
	ProxyHits        uint64
	ProxyRevalidated uint64
	ProxyFills       uint64
	ProxyPassThrough uint64
	ProxyErrors      uint64
	// ProxyStale counts stale-if-error serves: origin-leg failures
	// (dial error, breaker open, 5xx) answered from an expired cached
	// entry still inside its RFC 5861 stale window instead of a 502.
	ProxyStale uint64
	// Overload-control counters. FdPressure counts accept attempts
	// that hit EMFILE/ENFILE (each survived via the reserve-fd trick);
	// ConnsRejected counts connections turned away at accept time
	// (MaxConns, MaxConnsPerIP, or as the shed victim of an fd-
	// exhaustion recovery); ShedRequests counts requests answered 503
	// + Retry-After by the helper-queue watermark; ShedRevalidates
	// counts stale static entries served without revalidation under
	// that same pressure; IdleReaped counts parked idle connections
	// closed to free descriptors.
	FdPressure      uint64
	ConnsRejected   uint64
	ShedRequests    uint64
	ShedRevalidates uint64
	IdleReaped      uint64
}

// Add returns the field-wise sum of two snapshots (merging shard views
// into a server-wide view).
func (s Stats) Add(o Stats) Stats {
	s.Accepted += o.Accepted
	s.Active += o.Active
	s.Responses += o.Responses
	s.NotFound += o.NotFound
	s.Errors += o.Errors
	s.BytesSent += o.BytesSent
	s.BytesSendfile += o.BytesSendfile
	s.BytesCopied += o.BytesCopied
	s.GatherWrites += o.GatherWrites
	s.LoopMsgs += o.LoopMsgs
	s.OpenConns += o.OpenConns
	s.IdleConns += o.IdleConns
	s.HelperJobs += o.HelperJobs
	s.FileMaps += o.FileMaps
	s.FileUnmaps += o.FileUnmaps
	s.MapFallbacks += o.MapFallbacks
	s.ZapSpans += o.ZapSpans
	s.ZapCalls += o.ZapCalls
	s.DynamicCalls += o.DynamicCalls
	s.ProxyRequests += o.ProxyRequests
	s.ProxyHits += o.ProxyHits
	s.ProxyRevalidated += o.ProxyRevalidated
	s.ProxyFills += o.ProxyFills
	s.ProxyPassThrough += o.ProxyPassThrough
	s.ProxyErrors += o.ProxyErrors
	s.ProxyStale += o.ProxyStale
	s.FdPressure += o.FdPressure
	s.ConnsRejected += o.ConnsRejected
	s.ShedRequests += o.ShedRequests
	s.ShedRevalidates += o.ShedRevalidates
	s.IdleReaped += o.IdleReaped
	s.PathCache = s.PathCache.Add(o.PathCache)
	s.HeaderCache = s.HeaderCache.Add(o.HeaderCache)
	s.MapCache = s.MapCache.Add(o.MapCache)
	s.SharedChunks = s.SharedChunks.Add(o.SharedChunks)
	s.Fills = s.Fills.Add(o.Fills)
	return s
}

// Server is a sharded AMPED-architecture web server: Config.EventLoops
// independent event-loop goroutines (shards), each owning private
// pathname and header caches and a private helper pool, beside one
// chunk tier shared behind short per-segment locks, fed by acceptors
// that distribute connections round-robin. Create with New, start with
// Serve or ListenAndServe, stop with Close or Shutdown.
type Server struct {
	cfg    Config
	store  *cache.ShardedStore // the unified cache layer; shards hold Views of it
	shards []*shard
	// mapStats counts the mmap/munmap calls of every FileRef this server
	// creates (Stats.FileMaps, Stats.FileUnmaps) and their page zaps
	// (Stats.ZapSpans, Stats.ZapCalls), and holds their zap queue.
	mapStats cache.MapStats

	// routes is the v2 handler table. It is mutable only before the
	// server starts (Handle panics afterwards), so shards and
	// connection readers consult it without locks.
	routes  router
	started atomic.Bool // set by Serve; freezes the route table

	// proxyMounts records HandleProxy registrations (for ProxyStats);
	// ownedPool is the pool New built from Config.Upstream, closed with
	// the server (pools passed to HandleProxy stay caller-owned).
	proxyMounts []*proxyHandler
	ownedPool   *upstream.Pool

	nextShard atomic.Uint64 // round-robin accept distribution

	// Connection goroutines (serveConns). One serves a connection, then
	// parks on handoff for the next one Serve admits, keeping its grown
	// stack and read ring; Serve starts a new goroutine only when none is
	// parked. parked counts the goroutines waiting on handoff (at most
	// maxParkedConnGoroutines), Close closes handoff to end them, and
	// workers counts every connection goroutine, serving or parked.
	handoff chan *conn // unbuffered: a send succeeds only into a parked goroutine
	parked  atomic.Int32
	workers sync.WaitGroup

	logMu sync.Mutex // serializes AccessLog writes across shards

	mu        sync.Mutex // guards listeners/conns registry and closed
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	// ipConns counts open connections per remote IP (maintained only
	// when MaxConnsPerIP is set). Guarded by mu with the registry.
	ipConns map[string]int
	closed  bool // set by Close
	// stopping is the server's one stop signal, set under mu by Shutdown
	// or Close: Serve returns ErrServerClosed and admits no connection,
	// the loops answer new requests 503 and stop extending keep-alive,
	// and a connection that parks between requests closes instead
	// (conn.readHead).
	stopping atomic.Bool

	// reject503 is the preformatted response written to connections
	// turned away at accept time (admission limits, fd-exhaustion
	// victims): a well-formed 503 with Retry-After and Connection:
	// close, built once so rejection costs one write and one close.
	reject503 []byte

	// reserve is the spare descriptor for the classic EMFILE recovery
	// trick: when accept fails with EMFILE/ENFILE, closing the reserve
	// frees exactly one fd, the pending connection is accepted and
	// immediately closed (the peer sees a reset instead of a SYN
	// black hole), and the reserve is re-armed. Guarded by reserveMu.
	reserveMu sync.Mutex
	reserve   *os.File

	// Acceptor-side overload counters (off-loop, so atomic): folded
	// into Stats alongside the shard counters.
	fdPressure    atomic.Uint64
	connsRejected atomic.Uint64

	// wg counts the admitted connections not yet served to the end: one
	// is added in registerConn, under mu, so that Close — which sets
	// closed under mu and then waits — cannot miss one.
	wg sync.WaitGroup
}

// shard is one independent AMPED instance: an event-loop goroutine plus
// the caches and helpers it owns. No state here is ever touched by
// another shard.
type shard struct {
	srv *Server
	id  int
	cfg *Config // read-only after New

	// view is this loop's facade over the server's store: the
	// loop-private caches (paths, headers) plus the shared chunk tier.
	// Only this loop may call it.
	view  cache.View
	store *cache.ShardedStore // the store's shared geometry and tiers

	// accepted counts the connections the acceptor gave this shard. It
	// is atomic, so admission posts nothing to the loop: a snapshot
	// reads it, and OpenConns is accepted minus ended (loop-owned, one
	// per connEnd).
	accepted atomic.Uint64
	ended    uint64

	// Event-loop-owned state (never touched by other goroutines).
	stats Stats
	// busyConns counts conns with an exchange in flight (between
	// handleExchange and its end: settle, or signalNext); the idle
	// gauge is OpenConns minus this.
	busyConns int
	// batchNow is the clock reading a batch run shares (runBatch); 0
	// outside one.
	batchNow int64

	// msgs is the loop's mailbox. It is never closed: Close posts a
	// stop message, the loop runs what is queued behind it and exits
	// (stopped is its loop-owned note of that), and late senders see
	// loopDone rather than a closed channel. The buffer only has to
	// absorb bursts from the shard's connections and helpers without
	// parking them; a full mailbox blocks the sender, never the loop.
	msgs     chan loopMsg
	stopped  bool
	helpers  *helperPool
	loopDone chan struct{} // closed when the loop has exited

	// retryHdr is the preformatted Retry-After extra-header line for
	// shed 503s (built once from Config.RetryAfter).
	retryHdr []string
}

// loopMsg is one message to a shard's event loop. The per-request
// kinds (batch post, flush report, connection end) carry their
// arguments in value fields rather than closures, so the steady-state
// loop traffic allocates nothing; everything else rides in fn.
type loopMsg struct {
	fn func() // msgFn
	c  *conn  // every kind but msgFn and msgStop
	// short and sfShort are, for msgReleased and msgConnEnd, the
	// committed bytes the reported flush did not write and the part of
	// its descriptor window sendfile did not move (see conn.transmit).
	short, sfShort int64
	// n is, for msgReleased, the pin FIFO entries of the items flushed;
	// for msgBatch, the batch slot to run from.
	n      int32
	writes int32 // msgReleased, msgConnEnd: socket write calls since the last report
	ok     bool  // msgReleased, msgConnEnd
	kind   uint8
}

const (
	msgFn = iota
	msgBatch
	msgReleased
	msgConnEnd
	msgStop
)

// New creates a server from cfg.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Loop-private path/header caches per shard, beside one shared
	// chunk tier whose byte budget is configured once — NOT divided by
	// EventLoops.
	store := cache.NewShardedStore(cache.StoreOptions{
		Shards:        cfg.EventLoops,
		PathEntries:   cfg.Cache.PathEntries,
		HeaderEntries: cfg.Cache.HeaderEntries,
		MapBytes:      cfg.Cache.MapBytes,
		ChunkBytes:    cfg.Cache.ChunkBytes,
		OnPathEvict: func(_ string, e cache.PathEntry) {
			// Drop the cache's descriptor reference; helpers or
			// writers still reading through it hold their own, so
			// the file closes only when the last one finishes.
			releaseEntryFile(e.File)
		},
	})
	s := &Server{
		cfg:       cfg,
		store:     store,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
		handoff:   make(chan *conn),
	}
	if cfg.MaxConnsPerIP > 0 {
		s.ipConns = make(map[string]int)
	}
	s.reject503 = []byte("HTTP/1.1 503 Service Unavailable\r\n" +
		"Server: " + httpmsg.DefaultServerName + "\r\n" +
		"Retry-After: " + strconv.Itoa(cfg.RetryAfter) + "\r\n" +
		"Content-Length: 0\r\n" +
		"Connection: close\r\n\r\n")
	if len(cfg.Upstream) > 0 {
		pool, err := upstream.New(upstream.Config{Backends: cfg.Upstream})
		if err != nil {
			store.Close()
			return nil, err
		}
		s.ownedPool = pool
		s.HandleProxy(cfg.UpstreamPrefix, pool)
	}
	for i := 0; i < cfg.EventLoops; i++ {
		s.shards = append(s.shards, newShard(s, i))
	}
	if f, err := os.Open(os.DevNull); err == nil {
		s.reserve = f // spare fd for EMFILE recovery; nil is tolerated
	}
	return s, nil
}

func newShard(srv *Server, id int) *shard {
	cfg := &srv.cfg
	sh := &shard{
		srv:      srv,
		id:       id,
		cfg:      cfg,
		store:    srv.store,
		view:     srv.store.View(id),
		msgs:     make(chan loopMsg, 512),
		loopDone: make(chan struct{}),
	}
	sh.retryHdr = []string{"Retry-After: " + strconv.Itoa(cfg.RetryAfter)}
	sh.helpers = newHelperPool(sh, cfg.NumHelpers)
	go sh.loop()
	return sh
}

// NumShards returns the number of event-loop shards.
func (s *Server) NumShards() int { return len(s.shards) }

// String implements fmt.Stringer for debugging.
func (s *Server) String() string {
	return fmt.Sprintf("flash.Server{docroot=%s}", s.cfg.DocRoot)
}

// loop is a shard's event loop: the single goroutine that owns the
// shard's caches and per-request decision state. Every other goroutine
// communicates with it by posting messages to the mailbox.
func (s *shard) loop() {
	defer close(s.loopDone)
	for !s.stopped {
		s.dispatch(<-s.msgs)
	}
	s.drainMsgs()
}

// drainMsgs runs every message already in the mailbox.
func (s *shard) drainMsgs() {
	for {
		select {
		case m := <-s.msgs:
			s.dispatch(m)
		default:
			return
		}
	}
}

// stopLoop ends the shard's loop once it has run what is queued, and
// waits for it (Close, after every connection and helper has stopped).
func (s *shard) stopLoop() {
	s.send(loopMsg{kind: msgStop})
	<-s.loopDone
}

// dispatch runs one mailbox message on the loop.
func (s *shard) dispatch(m loopMsg) {
	s.stats.LoopMsgs++
	switch m.kind {
	case msgBatch:
		s.runBatch(m.c, int(m.n))
	case msgReleased:
		s.stats.GatherWrites += uint64(m.writes)
		s.released(m.c, int(m.n), m.short, m.sfShort, m.ok)
	case msgConnEnd:
		s.stats.GatherWrites += uint64(m.writes)
		s.connEnd(m.c, m.short, m.sfShort, m.ok)
	case msgStop:
		s.stopped = true
	default:
		m.fn()
	}
}

// send delivers a message to the shard's event loop. It reports false
// once the loop has exited (the message is dropped). The usual case is
// one non-blocking channel send; a full mailbox parks the sender until
// there is room or the loop is gone.
func (s *shard) send(m loopMsg) bool {
	select {
	case <-s.loopDone:
		return false
	default:
	}
	select {
	case s.msgs <- m:
	default:
		select {
		case s.msgs <- m:
		case <-s.loopDone:
			return false
		}
	}
	return true
}

// post delivers fn to the shard's event loop (the allocating, general
// form — cold paths only).
func (s *shard) post(fn func()) bool {
	return s.send(loopMsg{kind: msgFn, fn: fn})
}

// postBatch runs c's batch slots on the loop from slot i, without
// allocating: every request head reaches the loop this way.
func (s *shard) postBatch(c *conn, i int) bool {
	return s.send(loopMsg{kind: msgBatch, c: c, n: int32(i)})
}

// call runs fn on the shard's loop and waits for it (for Stats and
// tests); it returns without running fn when the loop has stopped.
func (s *shard) call(fn func()) {
	done := make(chan struct{})
	if !s.post(func() {
		fn()
		close(done)
	}) {
		return
	}
	select {
	case <-done:
	case <-s.loopDone:
	}
}

// snapshot returns a consistent view of one shard's counters.
func (s *shard) snapshot() Stats {
	var out Stats
	s.call(func() {
		s.stats.LoopMsgs-- // a snapshot does not count itself
		out = s.stats
		out.Accepted = s.accepted.Load()
		out.OpenConns = int(out.Accepted - s.ended)
		out.HelperJobs = s.helpers.jobs.Load()
		out.MapFallbacks = s.helpers.mapFallbacks.Load()
		out.ProxyFills = s.helpers.proxyFills.Load()
		out.ProxyRevalidated = s.helpers.proxyRevalidated.Load()
		out.ProxyStale = s.helpers.proxyStale.Load()
		if idle := out.OpenConns - s.busyConns; idle > 0 {
			out.IdleConns = idle
		}
		ls := s.view.LocalStats()
		out.PathCache = ls.Paths
		out.HeaderCache = ls.Headers
		out.MapCache = cache.MapCacheStats{Stats: ls.Chunks}
	})
	return out
}

// Stats returns the server-wide counters: the sum of every shard's
// snapshot, the shared chunk tier and fill counters from the store,
// plus the active connection count. MapCache adds the shared tier's
// counters to the shards' lookup counts (SharedChunks reports the tier
// alone), and PathCache the lookups of proxied keys' entries.
func (s *Server) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		out = out.Add(sh.snapshot())
	}
	shared := s.store.SharedStats()
	out.PathCache = out.PathCache.Add(shared.Entries)
	out.MapCache = out.MapCache.Add(shared.Chunks)
	out.SharedChunks = shared.Chunks
	out.Fills = shared.Fills
	out.FileMaps = s.mapStats.Maps.Load()
	out.FileUnmaps = s.mapStats.Unmaps.Load()
	out.ZapSpans = s.mapStats.ZapSpans.Load()
	out.ZapCalls = s.mapStats.ZapCalls.Load()
	out.Active = s.Active()
	out.FdPressure += s.fdPressure.Load()
	out.ConnsRejected += s.connsRejected.Load()
	return out
}

// Active returns the number of currently open connections.
func (s *Server) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// ShardStats returns one snapshot per shard (Active is server-wide
// state and is left zero here; see Stats).
func (s *Server) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.snapshot()
	}
	return out
}

// HandleRoute registers a v2 handler route: a method (or "" for every
// method) plus a path prefix, longest prefix winning, with an optional
// per-route body-size cap. Registration must happen before Serve —
// the route table is deliberately lock-free once connections exist —
// and panics afterwards, as it does on a malformed route.
func (s *Server) HandleRoute(r Route) {
	if s.started.Load() {
		panic("flash: route registration after Serve")
	}
	if !strings.HasPrefix(r.Prefix, "/") {
		panic("flash: route prefix must start with /")
	}
	if r.Handler == nil {
		panic("flash: route handler must not be nil")
	}
	s.routes.add(r)
}

// Handle registers h for every request whose path starts with prefix
// and whose method matches (method "" matches all; a GET route also
// answers HEAD). Must be called before Serve.
func (s *Server) Handle(method, prefix string, h Handler) {
	s.HandleRoute(Route{Method: method, Prefix: prefix, Handler: h})
}

// HandleFunc registers a handler function; see Handle.
func (s *Server) HandleFunc(method, prefix string, f func(ResponseWriter, *Request)) {
	s.Handle(method, prefix, HandlerFunc(f))
}

// ListenAndServe listens on addr ("host:port") and serves until the
// server is closed. The listener it builds (listen) sends no TCP
// keep-alive probes.
func (s *Server) ListenAndServe(addr string) error {
	l, err := listen(addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// listen builds ListenAndServe's listener. Keep-alive probes are off
// (KeepAlive -1): every connection already runs under a deadline —
// IdleTimeout between requests, a read or write timeout inside one —
// so the probes would only cost a setsockopt per accepted connection.
func listen(addr string) (net.Listener, error) {
	lc := net.ListenConfig{KeepAlive: -1}
	return lc.Listen(context.Background(), "tcp", addr)
}

// Serve accepts connections on l, distributing them round-robin across
// the shards, until Shutdown or Close begins; it then returns
// ErrServerClosed. l is used as given and closed when Serve returns.
// Each admitted connection goes to a connection goroutine parked
// between connections, or to a new one when none is parked
// (serveConns).
func (s *Server) Serve(l net.Listener) error {
	s.started.Store(true) // freezes the route table (see HandleRoute)
	s.mu.Lock()
	if s.stopping.Load() {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()

	for {
		nc, err := l.Accept()
		if err != nil {
			if s.stopping.Load() {
				return ErrServerClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
				s.surviveFdExhaustion(l)
				continue
			}
			return err
		}
		if failpoint.Armed() {
			if ferr := fpAccept.Eval(); ferr != nil {
				nc.Close()
				if errors.Is(ferr, syscall.EMFILE) || errors.Is(ferr, syscall.ENFILE) {
					s.surviveFdExhaustion(l)
				}
				continue
			}
			if ferr := fpConnAlloc.Eval(); ferr != nil {
				nc.Close()
				s.connsRejected.Add(1)
				continue
			}
		}
		sh := s.shards[s.nextShard.Add(1)%uint64(len(s.shards))]
		c := newConn(sh, nc)
		if err := s.registerConn(c); err != nil {
			if err == ErrServerClosed {
				nc.Close()
				return ErrServerClosed
			}
			s.rejectConn(nc)
			continue
		}
		sh.accepted.Add(1)
		select {
		case s.handoff <- c:
		default:
			s.workers.Add(1)
			go s.serveConns(c)
		}
	}
}

// maxParkedConnGoroutines caps the connection goroutines parked between
// connections: past it, a goroutine whose connection ends exits.
// Measured on a 2-CPU linux/amd64 host with go1.24: a parked goroutine
// holds its 4 KiB read ring and a 2–8 KiB stack, so 128 keep at most
// ~1.5 MiB after a burst — under a tenth of flashd's 19.6 MiB resident
// size on the conn_churn workload, where 4 000 connections a second
// (20 315 in one run) started 3 goroutines in all.
const maxParkedConnGoroutines = 128

// readRingSize is a connection's initial read ring (conn.rb).
const readRingSize = 4 << 10

// serveConns is a connection goroutine. It serves c and then, while the
// connections it serves end without a forced teardown, parks for the
// next one Serve admits (park), keeping its grown stack and its read
// ring. The conn record stays with its connection: the loop, helpers
// and fills may still hold it after the goroutine has moved on. A ring
// lent to a request body reader is left with its connection too — the
// handler reading through it may outlive the exchange — and the
// goroutine takes a fresh one.
func (s *Server) serveConns(c *conn) {
	defer s.workers.Done()
	var rb []byte
	for ; c != nil; c = s.park() {
		if rb == nil {
			rb = make([]byte, readRingSize)
		}
		c.rb = rb
		c.serve()
		if c.ringLent {
			rb = nil
		}
		s.unregisterConn(c)
		s.wg.Done()
		if c.tornDown() {
			return
		}
	}
}

// park waits for the next connection Serve hands over. It returns nil —
// and the goroutine exits — when maxParkedConnGoroutines are parked
// already, or once Close has closed handoff.
func (s *Server) park() *conn {
	defer s.parked.Add(-1)
	if s.parked.Add(1) > maxParkedConnGoroutines {
		return nil
	}
	return <-s.handoff
}

// Admission-control errors (internal: callers reject the conn).
var (
	errMaxConns      = errors.New("flash: MaxConns exceeded")
	errMaxConnsPerIP = errors.New("flash: MaxConnsPerIP exceeded")
)

// connIPKey extracts the host part of a remote address for per-IP
// accounting ("" when unparseable).
func connIPKey(remote string) string {
	if h, _, err := net.SplitHostPort(remote); err == nil {
		return h
	}
	return remote
}

// registerConn admits c into the connection registry, enforcing
// MaxConns and MaxConnsPerIP, and counts it on wg under the same lock
// that Shutdown and Close set stopping under: one that begins after
// this returns waits for c to be served, and none is added once they
// wait. On an admission error the caller owns the socket and should
// reject it; on ErrServerClosed the server is stopping.
func (s *Server) registerConn(c *conn) error {
	s.mu.Lock()
	if s.stopping.Load() {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if max := s.cfg.MaxConns; max > 0 && len(s.conns) >= max {
		s.mu.Unlock()
		s.connsRejected.Add(1)
		// Make room for the next attempt: close parked idle conns.
		s.reapIdle(reapBatch)
		return errMaxConns
	}
	if max := s.cfg.MaxConnsPerIP; max > 0 {
		ip := connIPKey(c.nc.RemoteAddr().String())
		if ip != "" {
			if s.ipConns[ip] >= max {
				s.mu.Unlock()
				s.connsRejected.Add(1)
				return errMaxConnsPerIP
			}
			s.ipConns[ip]++
			c.ipKey = ip
		}
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	return nil
}

// rejectConn answers a connection the server will not serve with the
// preformatted 503 + Retry-After and closes it. Bounded by a short
// write deadline so a zero-window peer cannot stall the acceptor.
func (s *Server) rejectConn(nc net.Conn) {
	nc.SetWriteDeadline(time.Now().Add(time.Second))
	nc.Write(s.reject503)
	nc.Close()
}

// Overload-recovery tuning: how many idle conns one reap pass may
// close, and how long the acceptor backs off after an EMFILE round.
const (
	reapBatch     = 64
	emfileBackoff = 10 * time.Millisecond
)

// surviveFdExhaustion is the acceptor's EMFILE/ENFILE recovery: burn
// the reserve fd to accept-and-close the pending connection (the peer
// sees an immediate reset instead of hanging in the SYN backlog),
// re-arm the reserve, reap idle connections to free descriptors, and
// back off briefly so a persistent exhaustion cannot spin the loop.
func (s *Server) surviveFdExhaustion(l net.Listener) {
	s.fdPressure.Add(1)
	s.reserveMu.Lock()
	if s.reserve != nil {
		s.reserve.Close()
		s.reserve = nil
		if nc, err := l.Accept(); err == nil {
			nc.Close()
			s.connsRejected.Add(1)
		}
		if f, err := os.Open(os.DevNull); err == nil {
			s.reserve = f
		}
	}
	s.reserveMu.Unlock()
	s.reapIdle(reapBatch)
	time.Sleep(emfileBackoff)
}

// reapIdle closes up to max parked idle connections across all shards
// to free descriptors under fd or connection pressure: it scans the
// registry for conns with no exchange in flight. The shared budget is
// atomic, so concurrent shard passes never over-reap by more than a
// handful.
func (s *Server) reapIdle(max int) {
	budget := new(atomic.Int64)
	budget.Store(int64(max))
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c := c
		c.sh.post(func() {
			// busy and pins are loop-owned: an exchange is in flight, or
			// a committed response is not yet reported written. Reap
			// only conns parked between requests.
			if budget.Load() <= 0 || c.busy || len(c.pins) > c.pinHead {
				return
			}
			budget.Add(-1)
			c.sh.stats.IdleReaped++
			c.abort()
		})
	}
}

// unregisterConn removes c from the connection registry. Called by the
// connection goroutine once it has served c.
func (s *Server) unregisterConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if c.ipKey != "" {
		if n := s.ipConns[c.ipKey]; n <= 1 {
			delete(s.ipConns, c.ipKey)
		} else {
			s.ipConns[c.ipKey] = n - 1
		}
		c.ipKey = ""
	}
	s.mu.Unlock()
}

// ErrServerClosed is returned by Serve once Shutdown or Close has
// begun.
var ErrServerClosed = fmt.Errorf("flash: server closed")

// Addr returns the address of one active listener, or "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l := range s.listeners {
		return l.Addr().String()
	}
	return ""
}

// Close immediately closes all listeners and connections, and ends the
// connection goroutines parked between connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.stopping.Store(true)
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.abort()
	}
	s.mu.Unlock()

	s.wg.Wait()
	// Every admitted connection is served, so none is waiting to be
	// handed over, and no Serve admits one after stopping: the parked
	// goroutines can be let go.
	close(s.handoff)
	s.workers.Wait()
	for _, sh := range s.shards {
		sh.helpers.stop()
	}
	for _, sh := range s.shards {
		// Release cached descriptors before the loop exits.
		sh.call(func() {
			sh.view.EachPath(func(_ string, e cache.PathEntry) {
				releaseEntryFile(e.File)
			})
			sh.view.ClearPaths()
		})
		sh.stopLoop()
	}
	if s.ownedPool != nil {
		s.ownedPool.Close()
	}
	s.store.Close()
	s.reserveMu.Lock()
	if s.reserve != nil {
		s.reserve.Close()
		s.reserve = nil
	}
	s.reserveMu.Unlock()
	return nil
}

// Shutdown stops the server gracefully. It sets the stop signal
// (stopping) — Serve returns ErrServerClosed, in-flight requests
// complete, new requests on surviving connections draw 503 and
// responses stop advertising keep-alive — closes the listeners and the
// connections idle between requests, then waits up to timeout for the
// admitted connections to be served before Close forces the rest.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.stopping.Store(true)
	for l := range s.listeners {
		l.Close()
	}
	// A request whose head arrives with the kick is still answered: the
	// loop reads stopping, so it draws the 503 and the connection closes.
	for c := range s.conns {
		c.kickIdle()
	}
	s.mu.Unlock()

	// registerConn adds nothing to wg from here on.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(timeout):
	}
	return s.Close()
}

// logAccess emits a CLF line (loop context only). The destination
// writer is shared by every shard, so the write itself is serialized —
// the one place shards touch common mutable state.
func (s *shard) logAccess(remote string, req *httpmsg.Request, status int, bytes int64) {
	if s.cfg.AccessLog == nil {
		return
	}
	host := remote
	if h, _, err := net.SplitHostPort(remote); err == nil {
		host = h
	}
	entry := httpmsg.CLFEntry{
		Host:   host,
		Time:   s.cfg.Clock(),
		Method: req.Method,
		Target: req.Target,
		Proto:  req.Proto,
		Status: status,
		Bytes:  bytes,
	}
	s.srv.logMu.Lock()
	fmt.Fprintln(s.cfg.AccessLog, httpmsg.FormatCLF(entry))
	s.srv.logMu.Unlock()
}
