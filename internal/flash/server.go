package flash

import (
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
	// portable fallback on platforms without sendfile).
	BytesSendfile int64
	BytesCopied   int64
	// GatherWrites counts the socket write calls issued for responses —
	// write, writev and each sendfile transfer — so GatherWrites over
	// Responses is the server-side "writes per response": 1 for a
	// client that waits for each reply, well under 1 for a pipelined
	// burst whose responses the goroutine engine gathers. The goroutine
	// engine counts a call the kernel splits under backpressure once;
	// the epoll engine counts every syscall.
	GatherWrites uint64
	// OpenConns and IdleConns are point-in-time gauges of the shard's
	// connections: open counts every adopted conn, idle the subset
	// parked between exchanges waiting for a request head. Maintained
	// by both connection engines (see Config.ConnEngine).
	OpenConns  int
	IdleConns  int
	HelperJobs uint64
	// FileMaps and FileUnmaps count the mmap(2) and munmap(2) calls made
	// for served files (server-wide Stats only): one pair per file
	// generation that was ever filled — the mapping is parked on the
	// path entry's descriptor, so neither moves while a working set
	// churns through the chunk budget. MapFallbacks counts chunk and
	// fill jobs that read their bytes because the file could not be
	// mapped (always, off Linux).
	FileMaps     uint64
	FileUnmaps   uint64
	MapFallbacks uint64
	PathCache    cache.Stats
	HeaderCache  cache.Stats
	// MapCache is the chunk-cache view: in a per-shard snapshot it is
	// that shard's loop-private L1 replica tier; in the server-wide
	// Stats it additionally folds in the shared segment tier, so it
	// keeps meaning "the chunk cache" as it did in v1.
	MapCache cache.MapCacheStats
	// SharedChunks is the shared segment tier alone (chunk bytes held
	// once for all shards); server-wide Stats only.
	SharedChunks cache.MapCacheStats
	// Fills counts the single-flight fill lifecycle (server-wide).
	Fills        cache.FillStats
	DynamicCalls uint64
	// Reverse-proxy tier counters (zero unless HandleProxy mounted a
	// pool): ProxyRequests counts every request routed to a proxy
	// mount; ProxyHits the subset served from a fresh cached entry
	// without any origin traffic; ProxyRevalidated origin 304s that
	// refreshed an entry; ProxyFills origin bodies streamed into the
	// cache; ProxyPassThrough requests relayed without caching;
	// ProxyErrors 502/504 verdicts.
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
	s.OpenConns += o.OpenConns
	s.IdleConns += o.IdleConns
	s.HelperJobs += o.HelperJobs
	s.FileMaps += o.FileMaps
	s.FileUnmaps += o.FileUnmaps
	s.MapFallbacks += o.MapFallbacks
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
// independent event-loop goroutines (shards), each owning a private set
// of caches and a private helper pool, fed by acceptors that distribute
// connections round-robin. Within a shard the paper's zero-lock
// invariant holds exactly as in the single-process design. Create with
// New, start with Serve or ListenAndServe, stop with Close or Shutdown.
type Server struct {
	cfg    Config
	store  cache.Store // the unified cache layer; shards hold Views of it
	shards []*shard
	// mapStats counts the mmap/munmap calls of every FileRef this server
	// creates (Stats.FileMaps, Stats.FileUnmaps).
	mapStats cache.MapStats

	// routes is the v2 handler table. It is mutable only before the
	// server starts (Handle panics afterwards), so shards and
	// connection readers consult it without locks.
	routes  router
	started atomic.Bool // set by Serve; freezes the route table

	// proxyMounts records HandleProxy registrations (for ProxyStats);
	// ownedPool is the pool New built from Config.Upstream, closed with
	// the server (pools passed to HandleProxy stay caller-owned).
	proxyMounts []proxyMount
	ownedPool   *upstream.Pool

	nextShard atomic.Uint64 // round-robin accept distribution

	logMu sync.Mutex // serializes AccessLog writes across shards

	mu        sync.Mutex // guards listeners/conns registry and closed
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	// ipConns counts open connections per remote IP (maintained only
	// when MaxConnsPerIP is set). Guarded by mu with the registry.
	ipConns  map[string]int
	closed   bool
	drainCh  chan struct{} // closed when the last conn unregisters during Shutdown
	draining bool

	// reject503 is the preformatted response written to connections
	// turned away at accept time (admission limits, fd-exhaustion
	// victims): a well-formed 503 with Retry-After and Connection:
	// close, built once so rejection costs one write and one close.
	reject503 []byte

	// reserve is the spare descriptor for the classic EMFILE recovery
	// trick: when accept fails with EMFILE/ENFILE, closing the reserve
	// frees exactly one fd, the pending connection is accepted and
	// immediately closed (the peer sees a reset instead of a SYN
	// black hole), and the reserve is re-armed. Guarded by reserveMu;
	// both acceptors (goroutine and epoll) share it.
	reserveMu sync.Mutex
	reserve   *os.File

	// Acceptor-side overload counters (off-loop, so atomic): folded
	// into Stats alongside the shard counters.
	fdPressure    atomic.Uint64
	connsRejected atomic.Uint64

	wg sync.WaitGroup
}

// shard is one independent AMPED instance: an event-loop goroutine plus
// the caches and helpers it owns. No state here is ever touched by
// another shard.
type shard struct {
	srv *Server
	id  int
	cfg *Config // read-only after New

	// view is this loop's facade over the server's cache.Store: the
	// loop-private caches (paths, headers, L1 chunk replicas) plus the
	// shared chunk tier behind them. Only this loop may call it.
	view  cache.View
	store cache.Store // the store's shared geometry and tiers

	// Event-loop-owned state (never touched by other goroutines).
	stats    Stats
	shutdown bool
	// busyConns counts conns with an exchange in flight (between
	// handleExchange/rejectRequest and signalNext); the idle gauge is
	// OpenConns minus this.
	busyConns int

	// proxyPending coalesces reverse-proxy metadata fetches for keys
	// this shard owns: one in-flight origin round trip per key, with
	// the waiters (possibly from other shards) parked on its verdict.
	proxyPending map[string][]proxyWaiter

	// np is the shard's epoll readiness engine (ConnEngineEpoll on
	// Linux); nil under the portable goroutine engine.
	np *npShard

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

	// clock is the shard's coarse wall clock: unix nanos, refreshed by a
	// ticker goroutine every coarseTick. Deadline arming on the request
	// hot path reads it instead of calling time.Now per I/O operation
	// (see conn.armRead), trading up to deadlineSlack of timeout
	// precision for two fewer vDSO calls per request.
	clock     atomic.Int64
	clockStop chan struct{}
}

// loopMsg is one message to a shard's event loop. The per-request and
// per-chunk kinds (exchange start, write-item completion, flush
// report) carry their arguments in value fields rather than closures,
// so the steady-state loop traffic allocates nothing; everything else
// rides in fn.
type loopMsg struct {
	fn             func()       // msgFn
	c              *conn        // msgExchange, msgItemDone, msgReleased
	plan           exchangePlan // msgExchange
	item           writeItem    // msgItemDone
	wrote, sfWrote int64        // msgItemDone
	short          int64        // msgReleased: committed bytes the flush did not write
	n              int32        // msgReleased: pin FIFO entries of the responses flushed
	writes         int32        // msgItemDone, msgReleased: socket write calls since the last report
	ok             bool         // msgItemDone, msgReleased
	kind           uint8
}

const (
	msgFn = iota
	msgExchange
	msgItemDone
	msgReleased
	msgStop
)

// Coarse-clock parameters. Timeouts shorter than coarseMinTimeout are
// armed precisely with time.Now (tests and aggressive configs keep
// exact semantics); longer ones tolerate firing up to deadlineSlack
// early in exchange for skipping the per-read SetReadDeadline churn.
const (
	coarseTick       = 100 * time.Millisecond
	deadlineSlack    = 500 * time.Millisecond
	coarseMinTimeout = 2 * time.Second
)

// New creates a server from cfg.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Loop-private path/header caches and L1 chunk replicas per shard,
	// over one shared chunk tier whose byte budget is configured once —
	// NOT divided by EventLoops.
	store := cache.NewShardedStore(cache.StoreOptions{
		Shards:             cfg.EventLoops,
		PathEntries:        cfg.Cache.PathEntries,
		HeaderEntries:      cfg.Cache.HeaderEntries,
		MapBytes:           cfg.Cache.MapBytes,
		ChunkBytes:         cfg.Cache.ChunkBytes,
		L1Bytes:            cfg.Cache.L1Bytes,
		DisableReplication: cfg.Cache.DisableReplication,
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
	}
	if cfg.MaxConnsPerIP > 0 {
		s.ipConns = make(map[string]int)
	}
	s.reject503 = []byte("HTTP/1.1 503 Service Unavailable\r\n" +
		"Server: " + cfg.ServerName + "\r\n" +
		"Retry-After: " + strconv.Itoa(cfg.RetryAfter) + "\r\n" +
		"Content-Length: 0\r\n" +
		"Connection: close\r\n\r\n")
	if f, err := os.Open(os.DevNull); err == nil {
		s.reserve = f // spare fd for EMFILE recovery; nil is tolerated
	}
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
		sh, err := newShard(s, i)
		if err != nil {
			for _, prev := range s.shards {
				prev.helpers.stop()
				close(prev.msgs)
				<-prev.loopDone
				close(prev.clockStop)
			}
			if s.ownedPool != nil {
				s.ownedPool.Close()
			}
			store.Close()
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

func newShard(srv *Server, id int) (*shard, error) {
	cfg := &srv.cfg
	sh := &shard{
		srv:       srv,
		id:        id,
		cfg:       cfg,
		store:     srv.store,
		view:      srv.store.View(id),
		msgs:      make(chan loopMsg, 512),
		loopDone:  make(chan struct{}),
		clockStop: make(chan struct{}),
	}
	if cfg.ConnEngine == ConnEngineEpoll {
		np, err := newNpShard()
		if err != nil {
			return nil, err
		}
		sh.np = np
	}
	sh.retryHdr = []string{"Retry-After: " + strconv.Itoa(cfg.RetryAfter)}
	sh.clock.Store(time.Now().UnixNano())
	go sh.runClock()
	sh.helpers = newHelperPool(sh, cfg.NumHelpers)
	go sh.loop()
	return sh, nil
}

// runClock refreshes the shard's coarse clock until the server closes.
func (s *shard) runClock() {
	t := time.NewTicker(coarseTick)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.clock.Store(now.UnixNano())
		case <-s.clockStop:
			return
		}
	}
}

// NumShards returns the number of event-loop shards.
func (s *Server) NumShards() int { return len(s.shards) }

// ConnEngine reports the active connection engine name
// (ConnEngineGoroutine or ConnEngineEpoll).
func (s *Server) ConnEngine() string { return s.cfg.ConnEngine }

// String implements fmt.Stringer for debugging.
func (s *Server) String() string {
	return fmt.Sprintf("flash.Server{docroot=%s}", s.cfg.DocRoot)
}

// loop is a shard's event loop: the single goroutine that owns the
// shard's caches and per-request decision state. Every other goroutine
// communicates with it by posting messages to the mailbox.
func (s *shard) loop() {
	if s.np != nil {
		s.npLoop()
		return
	}
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
	close(s.clockStop)
}

// dispatch runs one mailbox message on the loop (shared by both
// engines' loop bodies).
func (s *shard) dispatch(m loopMsg) {
	switch m.kind {
	case msgExchange:
		s.handleExchange(m.c, m.plan)
	case msgItemDone:
		s.stats.GatherWrites += uint64(m.writes)
		s.itemDone(m.c, m.item, m.wrote, m.sfWrote, m.ok)
	case msgReleased:
		s.stats.GatherWrites += uint64(m.writes)
		s.released(m.c, int(m.n), m.short, m.ok)
	case msgStop:
		s.stopped = true
	default:
		m.fn()
	}
}

// send delivers a message to the shard's event loop. It reports false
// once the loop has exited (the message is dropped). The usual case is
// one non-blocking channel send; a full mailbox parks the sender until
// there is room or the loop is gone. Under the epoll engine the loop
// may be parked in EpollWait rather than on the channel, so every send
// also tickles the wake pipe.
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
	s.npWake()
	return true
}

// post delivers fn to the shard's event loop (the allocating, general
// form — cold paths only).
func (s *shard) post(fn func()) bool {
	return s.send(loopMsg{kind: msgFn, fn: fn})
}

// postExchange starts an exchange on the loop without allocating.
func (s *shard) postExchange(c *conn, plan exchangePlan) bool {
	return s.send(loopMsg{kind: msgExchange, c: c, plan: plan})
}

// postItemDone reports a transmitted (or discarded) write item to the
// loop without allocating.
func (s *shard) postItemDone(c *conn, item writeItem, wrote, sfWrote int64, writes int32, ok bool) bool {
	return s.send(loopMsg{kind: msgItemDone, c: c, item: item,
		wrote: wrote, sfWrote: sfWrote, writes: writes, ok: ok})
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
		out = s.stats
		out.HelperJobs = s.helpers.jobs.Load()
		out.MapFallbacks = s.helpers.mapFallbacks.Load()
		if idle := out.OpenConns - s.busyConns; idle > 0 {
			out.IdleConns = idle
		}
		ls := s.view.LocalStats()
		out.PathCache = ls.Paths
		out.HeaderCache = ls.Headers
		out.MapCache = ls.Chunks
	})
	return out
}

// Stats returns the server-wide counters: the sum of every shard's
// snapshot, the shared chunk tier and fill counters from the store,
// plus the active connection count. MapCache aggregates both chunk
// tiers (per-shard L1s plus the shared segments) — the v1 meaning of
// "the chunk cache" — while SharedChunks reports the shared tier
// alone.
func (s *Server) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		out = out.Add(sh.snapshot())
	}
	shared := s.store.SharedStats()
	out.MapCache = out.MapCache.Add(shared.Chunks)
	out.SharedChunks = shared.Chunks
	out.Fills = shared.Fills
	out.FileMaps = s.mapStats.Maps.Load()
	out.FileUnmaps = s.mapStats.Unmaps.Load()
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

// HandleDynamic registers a v1 dynamic content handler for a path
// prefix (e.g. "/cgi-bin/"), adapted onto the v2 route table for GET
// and HEAD (the only methods the v1 server ever dispatched). Longest
// prefix wins. Must be called before Serve; panics afterwards.
func (s *Server) HandleDynamic(prefix string, h DynamicHandler) {
	s.Handle("GET", prefix, dynamicAdapter{h: h})
}

// ListenAndServe listens on addr ("host:port") and serves until the
// server is closed.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the server is closed,
// distributing them round-robin across the shards. l is closed when
// Serve returns.
func (s *Server) Serve(l net.Listener) error {
	s.started.Store(true) // freezes the route table (see HandleRoute)
	s.mu.Lock()
	if s.closed {
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

	if s.cfg.ConnEngine == ConnEngineEpoll {
		// The epoll engine accepts raw non-blocking fds with
		// accept4(2) and adopts them into the shard readiness loops.
		// Listeners it cannot take over (non-TCP: tests use net.Pipe
		// style wrappers) fall back to the goroutine accept path below;
		// the conn-level engines coexist safely.
		if err, handled := s.serveEpoll(l); handled {
			return err
		}
	}

	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
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
		sh.post(func() {
			sh.stats.Accepted++
			sh.stats.OpenConns++
		})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.unregisterConn(c)
		}()
	}
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
// MaxConns and MaxConnsPerIP. On an admission error the caller owns
// the socket and should reject it; on ErrServerClosed the server is
// shutting down.
func (s *Server) registerConn(c *conn) error {
	s.mu.Lock()
	if s.closed {
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
		ip := connIPKey(c.remote)
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
// to free descriptors under fd or connection pressure. Selection is
// approximate LRU: epoll shards walk their fd table closing conns
// parked between requests (ring empty, waiting for a head), the
// goroutine engine scans the registry for conns with no exchange in
// flight. The shared budget is atomic, so concurrent shard passes
// never over-reap by more than a handful.
func (s *Server) reapIdle(max int) {
	budget := new(atomic.Int64)
	budget.Store(int64(max))
	for _, sh := range s.shards {
		if sh.np == nil {
			continue
		}
		sh := sh
		sh.post(func() { sh.npReapIdle(budget) })
	}
	if s.cfg.ConnEngine == ConnEngineEpoll {
		return
	}
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		if c.np == nil {
			conns = append(conns, c)
		}
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

// unregisterConn removes c from the connection registry and signals the
// Shutdown drain waiter when the last one leaves. Called by the
// goroutine engine's conn goroutine on exit and by the epoll engine's npClose —
// the one funnel both engines share, so the drain channel covers epoll
// conns too.
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
	if s.draining && len(s.conns) == 0 {
		// Last connection out during Shutdown: wake the drain waiter
		// instead of leaving it to poll.
		s.draining = false
		close(s.drainCh)
	}
	s.mu.Unlock()
}

// ErrServerClosed is returned by Serve after Close or Shutdown.
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

// Close immediately closes all listeners and connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.abort()
	}
	s.mu.Unlock()

	s.wg.Wait()
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

// Shutdown closes listeners and stops accepting new work (in-flight
// requests complete; new requests on surviving connections draw 503
// and responses stop advertising keep-alive), then waits up to timeout
// for active connections to finish before forcing them closed. The
// wait is event-driven: the goroutine that unregisters the last
// connection signals a drain channel, so an early drain returns
// immediately — with nothing left to force-close — instead of
// sleep-polling the registry.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	for l := range s.listeners {
		l.Close()
	}
	var drained chan struct{}
	if len(s.conns) > 0 && !s.draining {
		s.draining = true
		s.drainCh = make(chan struct{})
	}
	drained = s.drainCh
	empty := len(s.conns) == 0
	s.mu.Unlock()

	// Stop extending keep-alive: settle consults this flag, so
	// every connection closes after its current response. Epoll shards
	// additionally close their idle conns right away — with no reader
	// goroutine to notice the flag, an idle keep-alive conn would
	// otherwise linger until its wheel deadline — while in-flight
	// exchanges drain through the registry as usual (satisfying the
	// drain channel via unregisterConn).
	for _, sh := range s.shards {
		sh.post(func() {
			sh.shutdown = true
			sh.npShutdownIdle()
		})
	}

	if !empty && drained != nil {
		select {
		case <-drained:
		case <-time.After(timeout):
		}
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
