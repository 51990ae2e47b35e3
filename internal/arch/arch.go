// Package arch implements the Flash paper's four server concurrency
// architectures — AMPED, SPED, MP, and MT — plus behavioural models of
// Apache (MP without aggressive caching) and Zeus (SPED, optionally
// multi-process, unaligned headers, small-file priority), all running on
// the simulated OS of package simos.
//
// Following the paper's methodology (§6), every architecture shares one
// request-processing code path — pathname translation, response-header
// construction, chunked sends through the mapped-file cache — and only
// the concurrency mechanism differs:
//
//   - SPED: one event-driven process; a non-resident file page blocks
//     the whole server.
//   - AMPED: one event-driven process plus helper processes reached via
//     pipes; only helpers block on disk.
//   - MP: a pool of processes, each serving one request at a time with
//     blocking I/O and private caches.
//   - MT: a pool of kernel threads sharing one address space and one set
//     of caches protected by locks.
package arch

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/httpmsg"
	"repro/internal/simnet"
	"repro/internal/simos"
)

// Kind selects the concurrency architecture.
type Kind int

const (
	// AMPED is the asymmetric multi-process event-driven architecture
	// (Flash).
	AMPED Kind = iota
	// SPED is the single-process event-driven architecture.
	SPED
	// MP is the multi-process architecture.
	MP
	// MT is the multi-threaded architecture.
	MT
)

func (k Kind) String() string {
	switch k {
	case AMPED:
		return "AMPED"
	case SPED:
		return "SPED"
	case MP:
		return "MP"
	case MT:
		return "MT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// eventDriven reports whether the kind uses a select loop.
func (k Kind) eventDriven() bool { return k == AMPED || k == SPED }

// AppCosts are the application-level CPU costs of the shared request
// processing code. They are identical across architectures and
// operating systems (same code, same CPU) — only the kernel costs in
// simos.Profile differ per OS.
type AppCosts struct {
	Parse       time.Duration // HTTP request parsing
	PathHit     time.Duration // pathname cache hit
	PathMiss    time.Duration // translation computation on miss
	HeaderHit   time.Duration // response-header cache hit
	HeaderBuild time.Duration // response-header construction
	CacheInsert time.Duration // inserting into an application cache
	TouchPage   time.Duration // touching one faulted-in page
	// PerRequest is extra per-request work (Apache's richer request
	// machinery: .htaccess checks, logging, API layers).
	PerRequest time.Duration
	// PerByte is extra per-byte work (Apache's user-space copy through
	// read(); Flash's mmap path avoids it).
	PerByte time.Duration
}

// DefaultAppCosts returns the Flash code-path costs on the paper's
// 333 MHz Pentium II.
func DefaultAppCosts() AppCosts {
	return AppCosts{
		Parse:       18 * time.Microsecond,
		PathHit:     2 * time.Microsecond,
		PathMiss:    30 * time.Microsecond,
		HeaderHit:   1 * time.Microsecond,
		HeaderBuild: 40 * time.Microsecond,
		CacheInsert: 3 * time.Microsecond,
		TouchPage:   400 * time.Nanosecond,
	}
}

// Options configures a simulated server.
type Options struct {
	Kind Kind
	// Name labels the server in experiment output (e.g. "Flash",
	// "SPED", "Zeus").
	Name string

	// NumProcs is the base pool size (MP/MT) or the number of event
	// loop processes (SPED: 1; Zeus: 1 or 2).
	NumProcs int
	// MaxProcs caps dynamic growth when SpawnPerConn is set.
	MaxProcs int
	// SpawnPerConn lets MP/MT grow one process/thread per concurrent
	// connection (the long-lived-connection behaviour of §4.2).
	SpawnPerConn bool
	// MaxHelpers bounds AMPED helper processes.
	MaxHelpers int

	// Cache configuration.
	PathCacheEntries   int
	HeaderCacheEntries int
	MapBytes           int64
	ChunkBytes         int64
	UsePathCache       bool
	UseRespCache       bool
	UseMapCache        bool
	// UseMmapIO selects mmap-based file access (Flash family). When
	// false the server read()s file data through a user buffer
	// (Apache), paying AppCosts.PerByte.
	UseMmapIO bool

	// AlignedHeaders pads response headers to 32-byte boundaries
	// (§5.5). When false, writes of body data behind a misaligned
	// header pay Profile.MisalignPerByte.
	AlignedHeaders bool

	// SmallFilePriority services events for small-document requests
	// first (Zeus's observed behaviour, §6.2).
	SmallFilePriority  bool
	SmallFileThreshold int64

	// ServerName overrides the Server header token (its length affects
	// header alignment for servers that do not pad).
	ServerName string

	// CoarseLocks makes MT hold one lock across a request's entire
	// processing, including blocking disk reads — the untuned variant
	// of Figure 10's note.
	CoarseLocks bool

	// ResidencyHeuristic replaces AMPED's per-send mincore test with
	// the §5.7 feedback-based predictor.
	ResidencyHeuristic bool

	// ReadAheadBytes overrides the filesystem's read clustering for
	// this server's file accesses. Flash's helpers fault whole 64 KB
	// chunks in one operation; Apache's 8 KB read() windows ramp the
	// kernel's sequential read-ahead, issuing more, smaller disk
	// operations that interleave under load.
	ReadAheadBytes int64

	App AppCosts
}

// Stats holds cumulative server counters.
type Stats struct {
	Accepted         uint64
	Responses        uint64
	NotFound         uint64
	Closed           uint64
	BytesQueued      int64
	HelperDispatches uint64
	HelperSpawns     uint64
	MincoreCalls     uint64
	MmapCalls        uint64
	MunmapCalls      uint64
	BlockingFetches  uint64
	HeuristicFaults  uint64
}

// cacheSet is one instance of the three application caches. Event-driven
// servers and MT share one set; MP gives each process its own.
type cacheSet struct {
	path *cache.PathCache
	hdr  *cache.HeaderCache
	mc   *cache.MapCache
}

func (s *Server) newCacheSet() *cacheSet {
	return &cacheSet{
		path: cache.NewPathCache(s.o.PathCacheEntries),
		hdr:  cache.NewHeaderCache(s.o.HeaderCacheEntries),
		mc:   cache.NewMapCache(s.o.MapBytes, s.o.ChunkBytes),
	}
}

// cacheMemBytes estimates the process memory consumed by cache entries
// (translations and headers; mapped chunks share page-cache pages).
func (o *Options) cacheMemBytes() int64 {
	return int64(o.PathCacheEntries)*120 + int64(o.HeaderCacheEntries)*300
}

// Server is a simulated web server instance.
type Server struct {
	m   *simos.Machine
	o   Options
	lis *simnet.Listener

	loop  []*eventLoop // event-driven kinds (Zeus may have two)
	pool  *procPool    // MP/MT
	stats Stats

	// Coarse-lock state (CoarseLocks).
	lockHeld    bool
	lockWaiters []func()
	// §5.7 residency predictor (ResidencyHeuristic).
	predictor residencyPredictor
}

// New creates a server on the machine. Call Start before driving load.
func New(m *simos.Machine, o Options) *Server {
	if o.Name == "" {
		o.Name = o.Kind.String()
	}
	if o.NumProcs <= 0 {
		o.NumProcs = 1
	}
	if o.MaxProcs < o.NumProcs {
		o.MaxProcs = o.NumProcs
	}
	if o.MaxHelpers <= 0 {
		o.MaxHelpers = 16
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = cache.DefaultChunkSize
	}
	if o.SmallFileThreshold <= 0 {
		o.SmallFileThreshold = 32 << 10
	}
	if o.App == (AppCosts{}) {
		o.App = DefaultAppCosts()
	}
	if o.Kind == MT && !m.Prof.HasKernelThreads {
		panic(fmt.Sprintf("arch: %s has no kernel thread support (MT unavailable)", m.Prof.Name))
	}
	return &Server{m: m, o: o, lis: m.Net.Listen()}
}

// Options returns the server's configuration.
func (s *Server) Options() Options { return s.o }

// Listener returns the listen socket for clients to connect to.
func (s *Server) Listener() *simnet.Listener { return s.lis }

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats { return s.stats }

// Machine returns the underlying simulated machine.
func (s *Server) Machine() *simos.Machine { return s.m }

// Start spawns server processes and begins accepting.
func (s *Server) Start() {
	if s.o.ReadAheadBytes > 0 {
		s.m.FS.ClusterBytes = s.o.ReadAheadBytes
	}
	if s.o.Kind.eventDriven() {
		n := s.o.NumProcs
		for i := 0; i < n; i++ {
			s.loop = append(s.loop, newEventLoop(s, i))
		}
		s.lis.OnReadable = func() {
			// Route the accept to the loop with the fewest connections.
			best := s.loop[0]
			for _, l := range s.loop[1:] {
				if l.conns < best.conns {
					best = l
				}
			}
			best.noteListener()
		}
		return
	}
	s.pool = newProcPool(s)
}

// profile is shorthand for the machine's OS cost table.
func (s *Server) prof() *simos.Profile { return &s.m.Prof }

// lockCost returns the synchronization cost per shared-cache operation:
// only the MT architecture pays it (§4.2 "Application-level Caching").
func (s *Server) lockCost() time.Duration {
	if s.o.Kind == MT {
		return s.prof().LockUncontended
	}
	return 0
}

// --- Shared request processing (the "same code base" of §6) ---

// connCtx is the per-connection state threaded through the processing
// steps.
type connCtx struct {
	s  *Server
	c  *simnet.Conn
	p  *simos.Proc // proc charged for this connection's work
	ca *cacheSet

	// Current request state.
	req       *simnet.Request
	file      *simos.File
	hdrLen    int64
	misalign  bool
	bodyOff   int64
	curChunk  *cache.Chunk
	keepAlive bool

	// Event-loop bookkeeping (nil for pool architectures).
	loop       *eventLoop
	wantRead   bool
	wantWrite  bool
	queued     bool
	loopReadK  func()
	loopWriteK func()

	// Pool bookkeeping: parked continuations.
	waitRead  func()
	waitWrite func()

	closed bool
}

// pageCount returns how many pages cover n bytes.
func (cc *connCtx) pageCount(n int64) int64 {
	ps := int64(cc.s.prof().PageSize)
	return (n + ps - 1) / ps
}

// handleNextRequest reads and processes one request; k runs when the
// request has been fully handed to TCP (or the connection closed).
func (cc *connCtx) handleNextRequest(k func()) {
	s := cc.s
	if cc.c.ClientEOF() {
		cc.close(k)
		return
	}
	req := cc.c.ReadRequest()
	if req == nil {
		// Spurious wakeup; wait again.
		cc.awaitReadable(func() { cc.handleNextRequest(k) })
		return
	}
	cc.req = req
	cc.keepAlive = req.KeepAlive
	cc.p.Use(s.prof().ReadCost+s.o.App.Parse+s.o.App.PerRequest, func() {
		cc.acquireCacheLock(func() { cc.translate(k) })
	})
}

// translate performs pathname translation (§5.2): cache hit, or the
// potentially blocking metadata walk.
func (cc *connCtx) translate(k func()) {
	s := cc.s
	if s.o.UsePathCache {
		if pe, ok := cc.ca.path.Get(cc.req.Path); ok {
			cc.file = pe.File.(*simos.File)
			cc.p.Use(s.o.App.PathHit+s.lockCost(), func() { cc.buildHeader(k) })
			return
		}
	}
	// Miss: translation computation plus a stat() that may block on the
	// inode read. AMPED cannot test whether a directory walk will block
	// (mincore inspects file pages, not namei), so Flash ships every
	// translation miss to a helper (the pathname cache "allows Flash to
	// avoid using the pathname translation helpers for every incoming
	// request", §5.2); the other architectures translate inline.
	cc.p.Use(s.o.App.PathMiss+s.prof().StatCost+s.lockCost(), func() {
		f := s.m.FS.Lookup(cc.req.Path)
		if f == nil {
			cc.sendError(404, k)
			return
		}
		cc.file = f
		s.translateBlocking(cc, f, func() {
			if s.o.UsePathCache {
				cc.p.Use(s.o.App.CacheInsert, func() {
					cc.ca.path.Put(cc.req.Path, cache.PathEntry{
						Translated: f.Path, File: f, Size: f.Size,
					})
					cc.buildHeader(k)
				})
				return
			}
			cc.buildHeader(k)
		})
	})
}

// respMeta builds the response metadata for the current file.
func (cc *connCtx) respMeta(status int, length int64) httpmsg.ResponseMeta {
	return httpmsg.ResponseMeta{
		Status:        status,
		Proto:         "HTTP/1.0",
		ContentType:   httpmsg.ContentTypeFor(cc.req.Path),
		ContentLength: length,
		KeepAlive:     cc.keepAlive,
		ServerName:    cc.s.o.ServerName,
	}
}

// buildHeader obtains the response header (§5.3) and starts the send.
func (cc *connCtx) buildHeader(k func()) {
	s := cc.s
	meta := cc.respMeta(200, cc.file.Size)
	if s.o.UseRespCache {
		if he, ok := cc.ca.hdr.Get(cc.file.Path, 0); ok {
			cc.startSend(int64(len(he.Header)), k)
			cc.p.Use(s.o.App.HeaderHit+s.lockCost(), func() { cc.sendBody(k) })
			return
		}
	}
	cc.p.Use(s.o.App.HeaderBuild+s.lockCost(), func() {
		hdr := httpmsg.BuildHeader(meta, s.o.AlignedHeaders)
		if s.o.UseRespCache {
			cc.ca.hdr.Put(cc.file.Path, cache.HeaderEntry{Header: hdr, Size: cc.file.Size})
		}
		cc.startSend(int64(len(hdr)), k)
		cc.sendBody(k)
	})
}

// startSend initializes send-side state for a response whose header is
// hdrLen bytes.
func (cc *connCtx) startSend(hdrLen int64, k func()) {
	cc.hdrLen = hdrLen
	cc.misalign = !cc.s.o.AlignedHeaders && hdrLen%httpmsg.HeaderAlign != 0
	cc.bodyOff = -hdrLen // negative offset: header bytes still unsent
	_ = k
}

// sendError emits an error response (body only, no file).
func (cc *connCtx) sendError(status int, k func()) {
	s := cc.s
	cc.s.stats.NotFound++
	body := httpmsg.ErrorBody(status)
	meta := cc.respMeta(status, int64(len(body)))
	meta.ContentType = "text/html"
	cc.p.Use(s.o.App.HeaderBuild, func() {
		hdr := httpmsg.BuildHeader(meta, s.o.AlignedHeaders)
		total := int64(len(hdr)) + int64(len(body))
		cc.writeFully(total, func() {
			cc.finishResponse(k)
		})
	})
}

// sendBody streams the file, chunk by chunk, through the mapped-file
// cache (or read() buffers), overlapping fetch and send per the
// architecture's blocking discipline.
func (cc *connCtx) sendBody(k func()) {
	// First drain any unsent header bytes together with the first chunk
	// write; writeFully handles arbitrary byte counts, so we just walk
	// chunks.
	cc.nextChunk(k)
}

// nextChunk ensures availability of the chunk at bodyOff and writes it.
func (cc *connCtx) nextChunk(k func()) {
	off := cc.bodyOff
	if off < 0 {
		off = 0
	}
	if off >= cc.file.Size {
		// Nothing (left) to send beyond the header.
		remaining := -cc.bodyOff // pending header bytes, if any
		if cc.file.Size == 0 && remaining > 0 {
			cc.writeFully(remaining, func() { cc.finishResponse(k) })
			return
		}
		cc.finishResponse(k)
		return
	}
	chunkIdx := int(off / cc.s.o.ChunkBytes)
	chunkOff := int64(chunkIdx) * cc.s.o.ChunkBytes
	chunkLen := cc.s.o.ChunkBytes
	if chunkOff+chunkLen > cc.file.Size {
		chunkLen = cc.file.Size - chunkOff
	}
	cc.ensureChunk(chunkIdx, chunkOff, chunkLen, func() {
		// Write the remainder of this chunk; any header bytes still
		// pending (bodyOff < 0, only possible for chunk 0) ride along
		// in the same writev.
		n := chunkOff + chunkLen - cc.bodyOff
		cc.writeFully(n, func() {
			cc.releaseChunk()
			cc.nextChunk(k)
		})
	})
}

// ensureChunk makes the byte range of one chunk sendable: present in the
// map cache (if enabled) and resident in memory, fetching from disk per
// the architecture's discipline.
func (cc *connCtx) ensureChunk(idx int, off, n int64, then func()) {
	s := cc.s
	if !s.o.UseMmapIO {
		// read()-based I/O (Apache model): a read syscall per chunk; the
		// data copy cost is charged per byte at write time via PerByte.
		cc.p.Use(s.prof().ReadCost+s.lockCost(), func() {
			if s.m.FS.Resident(cc.file, off, n) {
				s.m.BC.Touch(cc.file.ID, off, n)
				then()
				return
			}
			s.fetch(cc, off, n, then)
		})
		return
	}

	key := cache.ChunkKey{Path: cc.file.Path, Index: idx}
	if s.o.UseMapCache {
		if ch := cc.ca.mc.Lookup(key); ch != nil {
			cc.curChunk = ch
			cc.afterMapped(off, n, true, then)
			return
		}
	}
	// Not mapped: mmap it (and pay munmap for anything evicted; when
	// map caching is off the mapping is transient, so its munmap is
	// paid here too).
	s.stats.MmapCalls++
	mapCost := s.prof().MmapCost
	if !s.o.UseMapCache {
		mapCost += s.prof().MunmapCost
	}
	cc.p.Use(mapCost+s.lockCost(), func() {
		if s.o.UseMapCache {
			before := cc.ca.mc.Stats().Evictions
			cc.curChunk = cc.ca.mc.Insert(key, nil, n)
			evicted := cc.ca.mc.Stats().Evictions - before
			if evicted > 0 {
				s.stats.MunmapCalls += evicted
				cc.p.Use(time.Duration(evicted)*s.prof().MunmapCost, func() {
					cc.afterMapped(off, n, false, then)
				})
				return
			}
		}
		cc.afterMapped(off, n, false, then)
	})
}

// afterMapped applies the architecture's residency discipline before
// sending a mapped chunk. wasCached reports whether the chunk was
// already in the map cache (input to the §5.7 predictor).
func (cc *connCtx) afterMapped(off, n int64, wasCached bool, then func()) {
	s := cc.s
	release := func() {
		if !s.o.UseMapCache {
			// Without the map cache the mapping is transient: unmap
			// after the chunk is sent (handled in releaseChunk via
			// curChunk == nil marker; charge munmap now-ish).
		}
		then()
	}
	if s.o.Kind == AMPED && s.o.ResidencyHeuristic {
		cc.heuristicSend(off, n, wasCached, release)
		return
	}
	if s.o.Kind == AMPED {
		// Flash checks mincore before every send (the overhead that
		// makes Flash trail Flash-SPED on fully cached loads).
		s.stats.MincoreCalls++
		check := s.prof().MincoreBase + time.Duration(cc.pageCount(n))*s.prof().MincorePage
		cc.p.Use(check, func() {
			if s.m.FS.Resident(cc.file, off, n) {
				s.m.BC.Touch(cc.file.ID, off, n)
				release()
				return
			}
			s.helperFetch(cc, off, n, release)
		})
		return
	}
	// SPED/MP/MT/Zeus: just touch the mapping; a non-resident page
	// faults and blocks the toucher.
	if s.m.FS.Resident(cc.file, off, n) {
		s.m.BC.Touch(cc.file.ID, off, n)
		release()
		return
	}
	s.fetch(cc, off, n, release)
}

// releaseChunk unpins the current chunk after its bytes are queued.
func (cc *connCtx) releaseChunk() {
	s := cc.s
	if cc.curChunk != nil {
		cc.ca.mc.Release(cc.curChunk)
		cc.curChunk = nil
		return
	}
	if s.o.UseMmapIO && !s.o.UseMapCache {
		// Transient mapping: unmap immediately (the Figure 11
		// "no mmap caching" configuration).
		s.stats.MunmapCalls++
	}
}

// writeFully queues n bytes into the connection, waiting for
// writability as needed; k runs once all n bytes are accepted by TCP.
func (cc *connCtx) writeFully(n int64, k func()) {
	s := cc.s
	if n <= 0 {
		k()
		return
	}
	attempt := int(n)
	if free := cc.c.SndFree(); attempt > free {
		attempt = free
	}
	if attempt == 0 {
		cc.awaitWritable(func() { cc.writeFully(n, k) })
		return
	}
	perByte := s.prof().NetPerByte + s.o.App.PerByte
	if cc.misalign {
		perByte += s.prof().MisalignPerByte
	}
	cost := s.prof().WriteCost + time.Duration(attempt)*perByte
	cc.p.Use(cost, func() {
		accepted := cc.c.Write(attempt)
		cc.bodyOff += int64(accepted)
		s.stats.BytesQueued += int64(accepted)
		cc.writeFully(n-int64(accepted), k)
	})
}

// finishResponse marks the response boundary and loops or closes per the
// connection's persistence.
func (cc *connCtx) finishResponse(k func()) {
	s := cc.s
	cc.releaseCacheLock()
	cc.c.EndResponse()
	s.stats.Responses++
	cc.req = nil
	cc.file = nil
	if cc.keepAlive && !cc.c.ClientEOF() {
		cc.awaitReadable(func() { cc.handleNextRequest(k) })
		return
	}
	cc.close(k)
}

// close tears down the connection.
func (cc *connCtx) close(k func()) {
	if cc.closed {
		k()
		return
	}
	cc.closed = true
	cc.p.Use(cc.s.prof().CloseCost, func() {
		cc.c.Close()
		cc.s.m.ReleaseConnMem()
		cc.s.stats.Closed++
		if cc.loop != nil {
			cc.loop.conns--
		}
		k()
	})
}

// awaitReadable parks until the connection has a request (or EOF). In
// an event loop, parking returns control to the loop (the continuation
// is resumed by a later select round); in a pool, the owning proc
// blocks.
func (cc *connCtx) awaitReadable(k func()) {
	if cc.c.PendingRequests() > 0 || cc.c.ClientEOF() {
		k()
		return
	}
	if cc.loop != nil {
		cc.wantRead = true
		cc.loopReadK = k
		cc.loop.eventDone()
		return
	}
	cc.waitRead = k
}

// awaitWritable parks until the connection can accept bytes.
func (cc *connCtx) awaitWritable(k func()) {
	if cc.c.SndFree() > 0 {
		k()
		return
	}
	if cc.loop != nil {
		cc.wantWrite = true
		cc.loopWriteK = k
		cc.loop.eventDone()
		return
	}
	cc.waitWrite = k
}
