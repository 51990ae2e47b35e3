// Package flash implements a real, runnable web server in the AMPED
// (asymmetric multi-process event-driven) architecture of the Flash
// paper, mapped onto Go's runtime and scaled to multi-core hardware by
// sharding:
//
//   - Config.EventLoops independent shards (default one per CPU), each
//     an event-loop goroutine that owns a private View of the unified
//     cache.Store: the pathname and response-header caches plus an L1
//     of replicated hot chunks are loop-private, so — exactly as the
//     paper argues for SPED/AMPED (§4.2) — no locks guard any
//     per-request state on the warm path. The paper's single-process
//     design is EventLoops=1.
//
//   - Below the L1s sits one shared chunk tier (cache architecture
//     v2): chunk bytes live once, in a hash-partitioned owner segment
//     keyed by hash(path), so the configured byte budget is not split
//     (or duplicated) per shard and the working set a server holds is
//     the same at any EventLoops. Cold misses are coalesced
//     single-flight — concurrent requests for a cold path subscribe to
//     one in-flight fill owned by whichever shard hashes the path —
//     and fills publish chunks as they land (serve-while-fill):
//     subscribers get a loop message per published chunk and stream
//     the file in lockstep with the disk, first byte out before the
//     last byte is read.
//
//   - An acceptor distributes incoming connections round-robin across
//     the shards; a connection lives on one shard for its whole life,
//     so keep-alive requests always see that shard's warm caches.
//
//   - Each shard has a pool of helper goroutines performing every
//     filesystem operation (stat, open, chunk reads). The loop never
//     blocks on disk: misses are dispatched to helpers and the request
//     parks until the completion message arrives, like the paper's
//     helper processes notifying the server over a pipe.
//
//   - Two connection engines drive sockets (Config.ConnEngine). The
//     portable default runs one goroutine per connection, parked on
//     Go's netpoller, standing in for select-driven non-blocking
//     socket code: it reads and parses requests, and writes what the
//     loop hands back, so a slow client blocks only its own goroutine.
//     A response that is a single item — every warm small-file hit,
//     304 and error — is settled on the loop the moment it is queued,
//     and the responses of a pipelined burst leave gathered into one
//     writev (conn.serve). The Linux-only epoll engine is the
//     literal reading: connections are accepted with
//     accept4(SOCK_NONBLOCK), multiplexed by a raw edge-triggered
//     epoll loop per shard, advanced by an explicit per-connection
//     state machine, and timed out on a per-shard timer wheel — an
//     idle keep-alive connection holds no goroutines at all. Both
//     engines feed the same parser/cache/transport pipeline and are
//     byte-identical on the wire.
//
//   - File chunks are refcounted views over mmap(2)-mapped file
//     regions, mapped and touched by the disk helpers (the paper's
//     "mmap + touch"): cache eviction drops the cache's reference
//     while in-flight writers keep theirs, and the region is unmapped
//     when the last one lets go. Where a file cannot be mapped — a
//     platform without mmap, a filesystem that refuses — the helper
//     reads it into a heap buffer instead and the garbage collector
//     plays the role of munmap. Files are expected to be replaced by
//     rename: an in-place overwrite is visible through live mappings,
//     an in-place truncation fails the fill that runs into it.
//
//   - The steady-state request path is allocation-free: requests parse
//     zero-copy into a per-connection recycled httpmsg.Request (views
//     over a reusable head buffer), the carry-over read buffer shifts
//     ring-style instead of reallocating, exchange starts, item
//     completions and flush reports travel to the loop as typed
//     mailbox messages rather than closures, response sources, header
//     scratch and the gather list are pooled on the connection, entity tags and 304 headers are cached alongside
//     200 headers, and read/write deadlines are re-armed through a
//     per-shard coarse clock only when they drift. AllocsPerRun guard
//     tests pin the budget: 0 allocs/request on warm static-hit and
//     revalidation paths.
//
//   - Every response is produced by one bodySource — the unified
//     pipeline the loop drives and the socket's owner consumes. Static bodies
//     pick a transport per response (Config.SendfileThreshold): below
//     the threshold the chunk-cache walk with header-gathering writev,
//     at or above it the zero-copy sendfile(2) path straight from the
//     pathname cache's refcounted descriptor (portable copy fallback
//     off Linux). Descriptors are refcounted (cache.FileRef), so
//     eviction never closes a file under an in-flight pread or
//     sendfile.
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
//     probes, bounded retries — in place of the disk. Metadata fetches
//     are single-flight per entry (one owner shard coalesces all
//     shards' misses), cacheable bodies stream chunk-by-chunk into the
//     shared tier while coalesced clients serve (the fill machinery,
//     unchanged), stale entries revalidate with If-None-Match /
//     If-Modified-Since, and responses the RFC 7234 freshness rules
//     refuse relay pass-through on the dynamic pipeline.
//
// The three caches and the 32-byte response-header alignment are the
// paper's §5 optimizations, byte-for-byte the same data structures the
// simulator benchmarks. Server.Stats merges the per-shard counters into
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
	"repro/internal/httpmsg"
)

// Config configures a Server. The zero value is not valid: DocRoot is
// required; every other field has a sensible default.
type Config struct {
	// DocRoot is the directory served at "/".
	DocRoot string

	// IndexFile is appended to directory requests (default "index.html").
	IndexFile string

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

	// ConnEngine selects the per-connection I/O engine. The default,
	// ConnEngineGoroutine, runs one goroutine per connection parked on
	// Go's netpoller — portable everywhere, friendly to blocking
	// handlers, and the one that gathers a pipelined burst's responses
	// into few writev calls. ConnEngineEpoll (Linux only) runs
	// a readiness-driven state machine on a raw epoll loop per shard —
	// the paper's select()-loop heart — so an idle keep-alive
	// connection costs an fd in an interest set plus a few hundred
	// bytes of state, no goroutine stacks: the engine for
	// hundreds-of-thousands-of-connections fleets. Both engines speak
	// byte-identical HTTP (the torture and equivalence suites run on
	// each).
	ConnEngine string

	// SendfileThreshold selects the static-body transport per response:
	// bodies of at least this many bytes are served straight from the
	// cached descriptor — zero-copy sendfile(2) on Linux, a portable
	// pread+write loop elsewhere — skipping the mapped-chunk cache so
	// large files are not double-buffered in it. Smaller bodies walk
	// the chunk cache, which stays faster for small hot files (bytes
	// cached in memory, header gathered with the first chunk into one
	// writev). Zero defaults to DefaultSendfileThreshold (256 KiB);
	// negative disables the sendfile transport entirely.
	SendfileThreshold int64

	// EventLoops is the number of independent AMPED shards: event-loop
	// goroutines, each owning a private set of pathname/header/chunk
	// caches and a private helper pool, so the paper's zero-lock
	// invariant holds within every shard. Accepted connections are
	// distributed round-robin across shards. Default runtime.NumCPU();
	// set 1 for the paper's single-process behaviour.
	EventLoops int

	// NumHelpers bounds the disk helper pool of each shard (default 8
	// per shard).
	NumHelpers int

	// AlignHeaders pads response headers to 32-byte boundaries (§5.5;
	// default on — set DisableHeaderAlign to turn off).
	DisableHeaderAlign bool

	// DisableRanges ignores Range headers (every request gets the full
	// body with a 200). Default off: single-range requests get 206/416.
	DisableRanges bool

	// DisableETags suppresses ETag generation and If-None-Match
	// handling, leaving If-Modified-Since as the only validator (the
	// paper's 1999 behaviour).
	DisableETags bool

	// DisableChunked makes dynamic HTTP/1.1 responses close-delimited
	// instead of chunked (chunking is what lets dynamic responses keep
	// the connection alive without a pre-known Content-Length).
	DisableChunked bool

	// ServerName is the Server header token.
	ServerName string

	// MaxHeaderBytes bounds a request header block (default 32 KB).
	MaxHeaderBytes int

	// BodyReadTimeout bounds the total wall-clock time one request
	// body may take to arrive (the per-operation ReadTimeout still
	// applies to each read, but alone it would let a peer trickle one
	// byte per ReadTimeout forever). Zero defaults to 2 minutes;
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
	// (default 30s). ReadTimeout and WriteTimeout bound single I/O
	// operations (default 30s each).
	IdleTimeout  time.Duration
	ReadTimeout  time.Duration
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
	// hits are never shed. Zero disables shedding; the queue then
	// grows without bound, as before.
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
	// are trusted until chunk reloads notice a change).
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

	// Clock supplies response Date headers and log timestamps
	// (default time.Now; tests inject fixed clocks).
	Clock func() time.Time
}

// CacheConfig groups the cache-layer knobs under Config.Cache: the
// capacities of the translation/header/chunk tiers plus the v2
// coalescing and replication toggles. Zero values take defaults.
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
	// L1Bytes bounds each shard's loop-private replica cache of hot
	// chunks — the lock-free warm hit path over the shared tier. Zero
	// defaults to MapBytes/(8*EventLoops); negative disables replica
	// retention.
	L1Bytes int64
	// DisableCoalescing turns off single-flight fills: every cold
	// chunk miss dispatches its own helper read, as in v1.
	DisableCoalescing bool
	// DisableReplication turns off the per-shard L1: every chunk
	// lookup goes to the shared tier and takes a segment lock.
	DisableReplication bool
}

// Connection engine names for Config.ConnEngine and flashd
// -conn-engine.
const (
	ConnEngineGoroutine = "goroutine"
	ConnEngineEpoll     = "epoll"
)

// DefaultSendfileThreshold is the body size at which static responses
// switch from the chunk-cache copy path to the sendfile transport when
// Config.SendfileThreshold is left zero.
const DefaultSendfileThreshold = 256 << 10

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// left zero.
const DefaultMaxBodyBytes = 8 << 20

// Errors returned by configuration validation.
var (
	ErrNoDocRoot  = errors.New("flash: Config.DocRoot is required")
	ErrBadDocRoot = errors.New("flash: Config.DocRoot is not a directory")
	// ErrBadConnEngine reports an unknown ConnEngine name.
	ErrBadConnEngine = errors.New(`flash: ConnEngine must be "", "goroutine", or "epoll"`)
	// ErrConnEngineUnsupported reports ConnEngineEpoll on a platform
	// without epoll (the goroutine engine is the portable fallback).
	ErrConnEngineUnsupported = errors.New("flash: ConnEngine epoll is only supported on linux")
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
	if cfg.IndexFile == "" {
		cfg.IndexFile = "index.html"
	}
	switch cfg.ConnEngine {
	case "":
		cfg.ConnEngine = ConnEngineGoroutine
	case ConnEngineGoroutine:
	case ConnEngineEpoll:
		if !epollSupported {
			return cfg, ErrConnEngineUnsupported
		}
	default:
		return cfg, fmt.Errorf("%w (got %q)", ErrBadConnEngine, cfg.ConnEngine)
	}
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
	if cfg.ServerName == "" {
		cfg.ServerName = httpmsg.DefaultServerName
	}
	if cfg.MaxHeaderBytes == 0 {
		cfg.MaxHeaderBytes = httpmsg.MaxHeaderLen
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
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 30 * time.Second
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
