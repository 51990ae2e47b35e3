// Package repro is a reproduction of "Flash: An Efficient and Portable
// Web Server" (Pai, Druschel, Zwaenepoel — USENIX Annual Technical
// Conference, 1999).
//
// The module contains two halves:
//
//   - A real, runnable web server in the paper's AMPED architecture
//     (internal/flash), whose public API this package re-exports —
//     scaled to modern multi-core hardware as N independent AMPED
//     shards (Config.EventLoops, default one per CPU). Each shard is an
//     event-loop goroutine owning private pathname/header/chunk caches
//     with zero locks, fed round-robin by the acceptor, with helper
//     goroutines absorbing all blocking disk I/O, 32-byte-aligned
//     response headers, and CGI-style dynamic content handlers.
//     EventLoops=1 is the paper's single-process configuration.
//
//     On top of the 1.0-era core sits an HTTP/1.1 conformance layer:
//     default persistent connections with request pipelining (strict
//     in-order responses: one goroutine per connection owns the socket
//     in both directions; the complete heads of a pipelined burst reach
//     the event loop in one message and their responses leave gathered
//     into few writev calls — Stats.LoopMsgs and Stats.GatherWrites
//     over Stats.Responses are the server-side hand-offs and writes
//     per response),
//     single-range Range/If-Range requests answered 206/416 by
//     clamping the chunk-cache walk to the byte window, strong
//     (size, mtime) ETags with If-Match and If-Unmodified-Since (412)
//     and If-None-Match and If-Modified-Since (304) handling, and
//     chunked transfer-encoding for dynamic
//     handlers so 1.1 responses persist without a pre-known
//     Content-Length. A raw-socket torture suite and parser fuzzing
//     against the net/http oracle (FuzzParseRequest, FuzzParseResponse)
//     lock the behaviour down; requests and origin responses share one
//     header-field parser.
//
//     Dynamic content goes through the Handler v2 API — the full-peer
//     analogue of the paper's §5.6 CGI processes: a Handler runs on
//     its own goroutine, reads a streaming request Body (Content-
//     Length or chunked framing, Expect: 100-continue answered on
//     first read, Config.MaxBodyBytes limits with per-route
//     overrides, unread bodies drained before the next pipelined
//     request), and writes through a ResponseWriter whose goroutine
//     puts its output on the socket itself, one pipe buffer at a time
//     (the loop hears of the exchange when it starts and ends). Routing
//     is method + longest-prefix with 405/Allow on method misses,
//     registered before Serve. internal/flashhttp mounts any
//     unmodified net/http.Handler on the same surface.
//
//     The response data path is one body-source pipeline with two
//     static transports, chosen per response by
//     Config.SendfileThreshold: small bodies walk the mapped-chunk
//     cache and leave in a header-gathering writev (§5.5), while large
//     bodies ship zero-copy from the pathname cache's refcounted file
//     descriptor via sendfile(2) on Linux — never entering userspace
//     or double-buffering in the map cache — with a portable
//     pread+write fallback on other platforms. Cached chunks are the
//     paper's mapped files: refcounted views over mmap(2) regions that
//     the disk helpers map and touch, unmapped when the last response
//     lets go (a helper that cannot map a file reads it instead), so
//     served files should be replaced by rename. Every chunk miss joins
//     the one single-flight fill of its file; nothing else reads file
//     bytes into the cache. Stats.BytesSendfile
//     and Stats.BytesCopied split the traffic by transport, and a
//     byte-for-byte equivalence suite holds the two to identical wire
//     output.
//
//     The steady-state hot path is allocation-free: a warm keep-alive
//     static cache hit (and a 304 revalidation) performs zero heap
//     allocations per request across connection goroutine and event
//     loop, a gathered 16-deep pipelined burst included —
//     zero-copy request parsing into a recycled per-connection
//     Request, pooled response sources, typed loop messages instead
//     of closures, and cached entity tags and 304 headers.
//     AllocsPerRun guard tests (the CI alloc-guard job) enforce the
//     invariant; see README "Performance" for the per-path budgets and
//     bench/README.md for the benchmark every measured claim rests on.
//
//   - A deterministic simulation of the paper's 1999 testbed
//     (internal/sim*, internal/arch, internal/experiments) that rebuilds
//     the four server architectures — AMPED, SPED, MP, MT — from one
//     request-processing code base plus sharded-AMPED (Flash-SMP),
//     Apache, and Zeus behavioural models, and regenerates every
//     evaluation figure (6-12). Run `go run ./cmd/flashbench` to
//     reproduce them.
//
// Quick start:
//
//	srv, err := repro.New(repro.Config{DocRoot: "./public"})
//	if err != nil { ... }
//	log.Fatal(srv.ListenAndServe(":8080"))
//
// See README.md for the architecture overview and bench/README.md for
// the benchmark and its results.
package repro

import "repro/internal/flash"

// Server is an AMPED-architecture web server (see flash.Server).
type Server = flash.Server

// Config configures a Server (see flash.Config).
type Config = flash.Config

// Stats is a snapshot of server counters (see flash.Stats).
type Stats = flash.Stats

// Handler is the v2 dynamic-content interface: a full peer of the
// server that reads the request body and writes arbitrary headers and
// body through a ResponseWriter (see flash.Handler).
type Handler = flash.Handler

// HandlerFunc adapts a function to Handler.
type HandlerFunc = flash.HandlerFunc

// ResponseWriter assembles a Handler's response (see
// flash.ResponseWriter).
type ResponseWriter = flash.ResponseWriter

// Request is a Handler's view of one request, including its streaming
// Body (see flash.Request).
type Request = flash.Request

// Header holds a Handler's response header fields (see flash.Header).
type Header = flash.Header

// Route is one handler registration: method, path prefix, handler,
// and an optional per-route body cap (see flash.Route).
type Route = flash.Route

// ErrServerClosed is returned by Serve once Shutdown or Close has begun.
var ErrServerClosed = flash.ErrServerClosed

// New creates a Flash server from cfg.
func New(cfg Config) (*Server, error) { return flash.New(cfg) }
