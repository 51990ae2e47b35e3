// Package flash implements a real, runnable web server in the AMPED
// (asymmetric multi-process event-driven) architecture of the Flash
// paper, mapped onto Go's runtime and scaled to multi-core hardware by
// sharding:
//
//   - Config.EventLoops independent shards (default one per CPU), each
//     an event-loop goroutine that owns a private View of the unified
//     cache.ShardedStore: the pathname and response-header caches are
//     loop-private, so — exactly as the paper argues for SPED/AMPED
//     (§4.2) — no locks guard them on the warm path. The paper's
//     single-process design is EventLoops=1.
//
//   - Beside them sits one shared chunk tier (cache architecture v2):
//     each chunk has one index entry, in a hash-partitioned owner
//     segment keyed by hash(path), and a warm hit takes one short hold
//     of that segment's lock to pin it and one to release it. The
//     configured byte budget is not split (or duplicated) per shard,
//     and the working set a server holds is the same at any
//     EventLoops. Every chunk miss has one path: it joins the
//     single-flight fill for its path — concurrent requests for a cold
//     path subscribe to one in-flight fill, run by the helpers of the
//     shard whose request registered it in the path's segment, and a
//     request that meets the fill of another file generation waits for
//     it to end and joins the next — and fills publish chunks as they land
//     (serve-while-fill): subscribers get a loop message per published
//     chunk and stream the file in lockstep with the disk, first byte
//     out before the last byte is read. A chunk of one generation is
//     replaced by another's, never relabelled, so no response mixes
//     two generations of a file.
//
//   - An acceptor distributes incoming connections round-robin across
//     the shards; a connection lives on one shard for its whole life,
//     so keep-alive requests always see that shard's warm caches.
//
//   - Each shard has a pool of helper goroutines performing every
//     filesystem operation (stat, open, the fill passes that bring file
//     bytes in). The loop never blocks on disk: misses are dispatched
//     to helpers and the request parks until the completion message
//     arrives, like the paper's helper processes notifying the server
//     over a pipe.
//
//   - One goroutine per connection drives its socket, parked on Go's
//     netpoller, standing in for select-driven non-blocking socket
//     code: it reads and parses requests, and writes what the loop
//     hands back, so a slow client blocks only its own goroutine.
//     A response that is a single item — every warm small-file hit,
//     304 and error — is settled on the loop the moment it is queued.
//     Every request head reaches the loop one way: the complete heads
//     a read brought in — one, or a whole pipelined burst, the
//     rejection of a head that did not parse included — fill the
//     connection's batch slots, and one batch message posts them. The
//     loop runs them in one pass like the paper's event loop serving
//     every ready request, and their responses leave gathered into one
//     writev (conn.serve). The goroutine outlives its connection: when
//     one ends, it parks with its stack and read ring for the next one
//     the acceptor admits (Server.serveConns).
//
//   - The chunk of a file of one chunk is the bytes of the file's
//     mmap(2) mapping, mapped and touched by the disk helpers (the
//     paper's "mmap + touch") and parked on the file's refcounted
//     descriptor (cache.FileRef). Every chunk of a file of several is
//     a window of that descriptor: the helper makes it resident
//     (mincore, and a pread where pages are missing), and it leaves by
//     sendfile(2), never mapped in. Either kind holds one reference to
//     the FileRef while it is cached, as the path entry and in-flight
//     writers hold theirs: cache eviction drops the chunk's (and zaps
//     a mapped chunk's pages), and descriptor and mapping go together
//     when the last reference lets go. Where a file of one chunk
//     cannot be mapped — a platform without mmap, a filesystem that
//     refuses — the helper reads it into a heap buffer instead and the
//     garbage collector plays the role of munmap. Files are expected to
//     be replaced by rename: an in-place overwrite is visible through
//     live mappings and cached windows, an in-place truncation fails
//     the fill that runs into it or cuts short the response that does.
//
//   - The steady-state request path is allocation-free: requests parse
//     zero-copy into a per-connection recycled httpmsg.Request (views
//     over a reusable head buffer), the carry-over read buffer shifts
//     ring-style instead of reallocating, batch posts, item
//     completions and flush reports travel to the loop as typed
//     mailbox messages rather than closures, batch slots, the chunk
//     walk's source, header scratch and the gather list are pooled on
//     the connection, entity tags are computed once per stat, and each
//     entity's one 304 header is cached beside its 200 header and
//     patched to the request's persistence mode like it. AllocsPerRun
//     guard tests pin the budget: 0 allocs/request on warm static-hit
//     and revalidation paths.
//
//   - The loop commits every item of a static response when it queues
//     it, and the socket's owner reports every write in one flush
//     message, which releases what the items carried (chunk pins, a
//     descriptor reference) and, after a chunk walk's partial run —
//     the one response of several items — pulls the next run. A
//     handler's goroutine writes its own response to the socket and
//     reports once, when ServeFlash returns. Static bodies
//     pick a path per response (Config.SendfileThreshold): below
//     the threshold the chunk-cache walk — header-gathering writev for
//     a file of one chunk, header by writev and body by sendfile(2) for
//     the window chunks of a file of several — at or above it
//     sendfile(2) straight from the pathname cache's descriptor,
//     skipping the chunk cache (portable copy fallback off Linux for
//     both). Descriptors are refcounted (cache.FileRef), so eviction
//     never closes a file under an in-flight pread or sendfile.
//
//   - An overload-control layer keeps the loops alive when resources
//     run out rather than letting the kernel pick a failure mode: both
//     acceptors survive fd exhaustion (EMFILE/ENFILE) with a reserve
//     descriptor — close the spare, accept the pending connection,
//     close it immediately so the peer sees a reset instead of a SYN
//     black hole, re-arm — plus idle-connection reaping and backoff;
//     Config.MaxConns and MaxConnsPerIP reject surplus connections
//     with a preformatted 503 + Retry-After before a conn object is
//     ever built; and a helper-queue watermark (Config.ShedQueueDepth)
//     sheds new cache-miss work with fast 503s while warm hits — whose
//     path takes no new branches beyond one atomic load — keep
//     serving. The reverse proxy degrades before it fails: when the
//     origin leg errors (dial failure, breaker open, 5xx) and a stale
//     copy is within its RFC 5861 stale-if-error window, the stale
//     copy is served. Every shed/reap/stale event is a Stats counter,
//     and internal/failpoint injection points (disk read, origin
//     dial/read/response, accept, conn alloc, conn write) let the
//     chaos suite arm real faults against a live server.
//
//   - A caching reverse-proxy tier (Server.HandleProxy, or
//     Config.Upstream for the built-in mount) serves origin content
//     through the same three caches, with internal/upstream's backend
//     pool — keep-alive origin connections, circuit breakers, active
//     probes, bounded retries — in place of the disk. A proxied key's
//     entry and single-flight fill are one record in its chunk segment,
//     read and joined by every loop, so a key costs one origin exchange
//     at a time: the fill announces the entry and streams a cacheable
//     body into the shared tier while coalesced clients serve, stale
//     entries revalidate with If-None-Match / If-Modified-Since, and
//     responses the RFC 7234 freshness rules refuse relay pass-through
//     on the dynamic pipeline. A cached key answers exactly as a file
//     does, through the one responder — conditionals, ranges, header
//     cache, chunk walk — with the origin's metadata in its entry.
//
// The three caches and the 32-byte response-header alignment are the
// paper's §5 optimizations, always on, byte-for-byte the same data
// structures the simulator benchmarks. The HTTP/1.1 layer — ranges,
// entity tags, chunked dynamic responses — is likewise not
// switchable. Server.Stats merges the per-shard counters into
// one view; Server.ShardStats exposes them individually.
package flash

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cache"
)

// Config configures a Server. The zero value is not valid: DocRoot is
// required; every other field has a sensible default.
type Config struct {
	// DocRoot is the directory served at "/".
	DocRoot string

	// EnableListings serves a generated HTML listing for directories
	// without an index file (off by default: a 1999 server's behaviour
	// is configurable, its default is conservative).
	EnableListings bool

	// UserDirBase and UserDirSuffix enable "/~user/..." translation to
	// UserDirBase/user/UserDirSuffix/... (the paper's §5.2 example:
	// /~bob → /home/users/bob/public_html). Empty disables it.
	UserDirBase   string
	UserDirSuffix string

	// Cache groups every cache-layer knob (see CacheConfig).
	Cache CacheConfig

	// SendfileThreshold splits static bodies between two paths by size.
	// A body of at least this many bytes skips the chunk cache: it is
	// sent straight from the path entry's descriptor, with no fill and
	// no chunk pinned. A smaller body walks the chunk cache, which stays
	// faster for small hot files: a file of one chunk has its bytes
	// cached in memory and gathered with the header into one writev,
	// and the window chunks of a file of several leave from their
	// descriptor after a header writev. Bytes sent from a descriptor,
	// on either path, move by sendfile(2) on Linux and by a portable
	// pread+write loop elsewhere. Zero means DefaultSendfileThreshold
	// (256 KiB). A negative value sends every body through the chunk
	// cache; a body of several chunks still leaves by sendfile.
	SendfileThreshold int64

	// EventLoops is the number of independent AMPED shards: event-loop
	// goroutines, each owning private pathname/header caches and a
	// private helper pool, so the paper's zero-lock invariant holds for
	// those within every shard; the chunk tier is shared across shards
	// behind short per-segment locks. Accepted connections are
	// distributed round-robin across shards. Default runtime.NumCPU();
	// set 1 for the paper's single-process behaviour.
	EventLoops int

	// NumHelpers bounds the disk helper pool of each shard (default 8
	// per shard).
	NumHelpers int

	// BodyReadTimeout bounds the total wall-clock time one request
	// body may take to arrive (the per-read readTimeout still applies
	// to each read, but alone it would let a peer trickle one byte per
	// readTimeout forever). Zero defaults to 2 minutes;
	// negative disables the aggregate bound.
	BodyReadTimeout time.Duration

	// MaxBodyBytes bounds a request body delivered to a v2 Handler:
	// a Content-Length beyond it draws an immediate 413 (without a
	// 100 Continue, when one was expected), and a chunked body is cut
	// off with ErrBodyTooLarge once its decoded size passes the cap.
	// Individual routes may override it (Route.MaxBodyBytes). Zero
	// defaults to DefaultMaxBodyBytes (8 MiB); negative means
	// unlimited.
	MaxBodyBytes int64

	// IdleTimeout closes keep-alive connections with no request
	// (default 30s), counted from the end of the previous response.
	// WriteTimeout bounds a single write (default 30s); a single read
	// is bounded by readTimeout. Each deadline is set from time.Now
	// when its wait begins, so it fires on time, never early.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// MaxConns bounds concurrently open client connections across the
	// whole server. Beyond it, new connections are turned away at
	// accept time with a preformatted "503 Service Unavailable" +
	// Retry-After response and an immediate close (counted in
	// Stats.ConnsRejected). Zero or negative means unlimited.
	MaxConns int

	// MaxConnsPerIP bounds concurrently open connections from one
	// remote IP address — a cheap guard against a single abusive
	// client exhausting MaxConns or the fd budget. Rejections look
	// exactly like MaxConns rejections. Zero or negative means
	// unlimited.
	MaxConnsPerIP int

	// ShedQueueDepth is the helper-queue watermark for load shedding:
	// when a shard's pending helper-job queue is deeper than this,
	// new cache-miss and proxy-miss work is answered with an
	// immediate 503 + Retry-After instead of queueing (counted in
	// Stats.ShedRequests), and stale-but-cached static entries are
	// served without revalidation (Stats.ShedRevalidates). Warm cache
	// hits are never shed. Zero defaults to 4 × NumHelpers (four
	// queued jobs per helper); negative disables shedding, and the queue
	// then grows without bound.
	ShedQueueDepth int

	// RetryAfter is the hint, in seconds, sent on shed responses as
	// the Retry-After header (default 1). Well-behaved clients back
	// off by it.
	RetryAfter int

	// StaleIfError is the default stale-if-error window for proxied
	// entries whose origin response carried no stale-if-error
	// Cache-Control directive (RFC 5861): after an entry expires, an
	// origin failure (dial error, breaker open, 5xx) within this
	// window serves the stale cached copy instead of a 502 (counted
	// in Stats.ProxyStale). Zero means only entries with an explicit
	// origin directive are eligible; negative disables stale-if-error
	// serving entirely.
	StaleIfError time.Duration

	// RevalidateInterval bounds how stale a pathname-cache entry may
	// be before the next request re-stats the file (detecting size and
	// mtime changes). Zero defaults to 2s; negative disables
	// revalidation entirely (the paper's semantics: cached identities
	// are trusted until a fill's identity check notices a change).
	RevalidateInterval time.Duration

	// Upstream lists origin backends ("host:port") for the built-in
	// caching reverse-proxy tier; empty disables it. When set, New
	// builds an upstream.Pool with default tuning, mounts it at
	// UpstreamPrefix, and closes it with the server. For custom pool
	// tuning (timeouts, breaker thresholds), build the pool yourself
	// and call Server.HandleProxy.
	Upstream []string
	// UpstreamPrefix is the route prefix the built-in pool serves
	// (default "/": every request not matching a longer route is
	// proxied). Must start with "/". Ignored when Upstream is empty.
	UpstreamPrefix string

	// AccessLog, if non-nil, receives one Common Log Format line per
	// completed request. Writes happen on the event loop; use an
	// in-memory or buffered writer.
	AccessLog io.Writer

	// Clock supplies response Date headers, log timestamps and the time
	// freshness is judged by: path revalidation, and a proxied entry's
	// expiry and stale window (default time.Now; tests inject fixed or
	// advancing clocks).
	Clock func() time.Time
}

// CacheConfig groups the cache-layer knobs under Config.Cache: the
// capacities of the translation/header/chunk tiers. Zero values take
// defaults.
type CacheConfig struct {
	// PathEntries bounds the pathname translation cache across the
	// whole server (default 6000); each shard owns an equal share.
	// Entries hold open file descriptors, so this is also the
	// descriptor-cache budget.
	PathEntries int
	// HeaderEntries bounds the response header cache across the whole
	// server (default 6000), split evenly across shards.
	HeaderEntries int
	// MapBytes bounds the shared chunk tier (default 64 MB). One
	// budget for the whole store, independent of EventLoops.
	MapBytes int64
	// ChunkBytes is the chunk granularity (default 64 KB).
	ChunkBytes int64
}

// DefaultSendfileThreshold is the body size at which static responses
// switch from the chunk-cache copy path to the sendfile transport when
// Config.SendfileThreshold is left zero.
const DefaultSendfileThreshold = 256 << 10

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// left zero.
const DefaultMaxBodyBytes = 8 << 20

// readTimeout bounds a single read of a request head or body once its
// first bytes are in.
const readTimeout = 30 * time.Second

// Errors returned by configuration validation.
var (
	ErrNoDocRoot  = errors.New("flash: Config.DocRoot is required")
	ErrBadDocRoot = errors.New("flash: Config.DocRoot is not a directory")
	// ErrBadUpstreamPrefix reports an UpstreamPrefix that does not
	// start with "/".
	ErrBadUpstreamPrefix = errors.New(`flash: Config.UpstreamPrefix must start with "/"`)
)

// withDefaults validates cfg and fills defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.DocRoot == "" {
		return cfg, ErrNoDocRoot
	}
	abs, err := filepath.Abs(cfg.DocRoot)
	if err != nil {
		return cfg, fmt.Errorf("flash: resolving DocRoot: %w", err)
	}
	st, err := os.Stat(abs)
	if err != nil || !st.IsDir() {
		return cfg, ErrBadDocRoot
	}
	cfg.DocRoot = abs
	if cfg.Cache.PathEntries == 0 {
		cfg.Cache.PathEntries = 6000
	}
	if cfg.Cache.HeaderEntries == 0 {
		cfg.Cache.HeaderEntries = 6000
	}
	if cfg.Cache.MapBytes == 0 {
		cfg.Cache.MapBytes = 64 << 20
	}
	if cfg.Cache.ChunkBytes == 0 {
		cfg.Cache.ChunkBytes = cache.DefaultChunkSize
	}
	if len(cfg.Upstream) > 0 {
		if cfg.UpstreamPrefix == "" {
			cfg.UpstreamPrefix = "/"
		}
		if !strings.HasPrefix(cfg.UpstreamPrefix, "/") {
			return cfg, ErrBadUpstreamPrefix
		}
	}
	if cfg.SendfileThreshold == 0 {
		cfg.SendfileThreshold = DefaultSendfileThreshold
	}
	if cfg.EventLoops <= 0 {
		cfg.EventLoops = runtime.NumCPU()
	}
	if cfg.NumHelpers == 0 {
		cfg.NumHelpers = 8
	}
	if cfg.ShedQueueDepth == 0 {
		cfg.ShedQueueDepth = 4 * cfg.NumHelpers
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.BodyReadTimeout == 0 {
		cfg.BodyReadTimeout = 2 * time.Minute
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.RevalidateInterval == 0 {
		cfg.RevalidateInterval = 2 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg, nil
}
