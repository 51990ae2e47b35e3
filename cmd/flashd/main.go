// Command flashd runs the Flash web server: an AMPED-architecture
// static file server with pathname/header/chunk caching, helper-based
// disk I/O, an optional status endpoint, and optional Handler-v2 demo
// mounts.
//
// Usage:
//
//	flashd -root ./public [-addr :8080] [-loops N] [-helpers 8] [-status]
//	       [-userdir-base /home -userdir-suffix public_html]
//	       [-access-log access.log]
//	       [-conn-engine goroutine|epoll]
//	       [-cache-path-entries 6000] [-cache-header-entries 6000]
//	       [-cache-map-mb 64] [-cache-chunk-kb 64] [-cache-l1-kb 0]
//	       [-cache-no-coalesce] [-cache-no-replicate]
//	       [-sendfile-threshold 262144] [-max-body 8388608] [-demo]
//	       [-upstream host:port,host:port -upstream-prefix /]
//	       [-max-conns N] [-max-conns-per-ip N] [-shed-queue N]
//	       [-retry-after 1] [-stale-if-error 30s]
//
// The overload knobs mirror flash.Config's admission-control layer:
// -max-conns and -max-conns-per-ip reject excess connections with a
// 503 + Retry-After, -shed-queue sheds new cache-miss work once the
// helper queue passes that depth (warm hits keep serving), and
// -stale-if-error lets the proxy tier answer origin failures from
// expired cache entries for that long past expiry. The /server-status
// "overload" line reports the reject/shed/reap counters.
//
// The cache knobs mirror flash.Config.Cache: budgets are server-wide
// (the store owns them; shard count does not divide the effective
// cache size). Cached file chunks are views of one mmap(2) mapping per
// file, kept for as long as the file's pathname-cache entry: evicting a
// chunk drops its pages, not the mapping, so -cache-map-mb bounds the
// resident bytes and -cache-path-entries the files kept mapped
// (/server-status: "file maps:"). Replace served files by rename: an
// in-place overwrite shows through live mappings, an in-place
// truncation fails the fill that meets it.
//
// -upstream turns flashd into a caching reverse proxy: requests under
// -upstream-prefix (default "/") that miss the local docroot routes are
// fetched from the backend pool (round-robin, keep-alive reuse,
// circuit breakers, retry-on-idempotent) and cached under the origin's
// freshness policy. With -status, /server-status reports per-backend
// health; `?format=json` emits the whole status as JSON.
//
// -demo mounts three dynamic routes that exercise the Handler v2 API:
//
//	POST /echo    a native flash.Handler that streams the request body
//	              straight back (Content-Type preserved)
//	POST /upload  an unmodified net/http handler behind
//	              flashhttp.Adapter that counts the uploaded bytes and
//	              reports them as JSON
//	GET  /gen     an origin simulator for proxy benchmarking: emits a
//	              deterministic body with a stable ETag and honors
//	              If-None-Match with a 304. Query knobs: bytes=N
//	              (payload size), delay=DUR (pre-response sleep, e.g.
//	              5ms), ttl=SECS (Cache-Control max-age), cc=VAL (raw
//	              Cache-Control override, e.g. no-store)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/flash"
	"repro/internal/flashhttp"
	"repro/internal/httpmsg"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		root       = flag.String("root", "", "document root (required)")
		loops      = flag.Int("loops", 0, "event-loop shards (0 = one per CPU)")
		helpers    = flag.Int("helpers", 8, "disk helper goroutines per shard")
		connEng    = flag.String("conn-engine", "goroutine", "connection engine: goroutine (portable, 1 goroutine/conn) or epoll (Linux readiness loop, zero goroutines per idle conn)")
		idleTO     = flag.Duration("idle-timeout", 0, "keep-alive idle timeout (0 = built-in default; idle-conn soaks raise this)")
		cachePaths = flag.Int("cache-path-entries", 6000, "pathname cache entries (server-wide)")
		cacheHdrs  = flag.Int("cache-header-entries", 0, "header cache entries (0 = same as -cache-path-entries)")
		cacheMapMB = flag.Int64("cache-map-mb", 64, "chunk cache byte budget (MB, server-wide — the store owns it, shards share it)")
		cacheChunk = flag.Int64("cache-chunk-kb", 0, "chunk size in KiB (0 = built-in default)")
		cacheL1    = flag.Int64("cache-l1-kb", 0, "per-shard L1 replica budget in KiB (0 = auto-size, negative disables the L1)")
		noCoalesce = flag.Bool("cache-no-coalesce", false, "disable single-flight miss coalescing (v1 per-chunk reads)")
		noReplica  = flag.Bool("cache-no-replicate", false, "disable per-shard L1 hot-set replication")
		userBase   = flag.String("userdir-base", "", "base directory for /~user/ translation")
		userSuffix = flag.String("userdir-suffix", "public_html", "suffix for /~user/ translation")
		accessLog  = flag.String("access-log", "", "Common Log Format access log file")
		status     = flag.Bool("status", false, "serve live statistics at /server-status")
		noAlign    = flag.Bool("no-align", false, "disable 32-byte response header alignment")
		sfThresh   = flag.Int64("sendfile-threshold", flash.DefaultSendfileThreshold,
			"minimum body bytes for the zero-copy sendfile transport (0 disables)")
		maxBody = flag.Int64("max-body", flash.DefaultMaxBodyBytes,
			"request body cap in bytes (larger bodies draw 413; 0 removes the cap)")
		maxConns     = flag.Int("max-conns", 0, "admission cap on concurrent connections (0 = unlimited); excess conns get 503 + Retry-After")
		maxConnsIP   = flag.Int("max-conns-per-ip", 0, "per-client-IP connection cap (0 = unlimited)")
		shedQueue    = flag.Int("shed-queue", 0, "helper-queue depth watermark above which new cache-miss work sheds with 503 (0 = never shed)")
		retryAfter   = flag.Int("retry-after", 0, "Retry-After seconds advertised on overload 503s (0 = default 1)")
		staleIfError = flag.Duration("stale-if-error", 0, "serve expired proxy entries this long past expiry when the origin fails (0 = only explicit origin stale-if-error directives; negative disables)")
		demo         = flag.Bool("demo", false, "mount the /echo, /upload and /gen dynamic demo handlers")
		upstream     = flag.String("upstream", "", "comma-separated backend host:port list — serve -upstream-prefix as a caching reverse proxy over this pool")
		upPrefix     = flag.String("upstream-prefix", "/", "path prefix proxied to -upstream backends")
	)
	flag.Parse()
	if *root == "" {
		fmt.Fprintln(os.Stderr, "flashd: -root is required")
		flag.Usage()
		os.Exit(2)
	}

	hdrEntries := *cacheHdrs
	if hdrEntries == 0 {
		hdrEntries = *cachePaths
	}
	l1Bytes := *cacheL1 << 10
	if *cacheL1 < 0 {
		l1Bytes = -1 // flag's "negative = off" → config's negative sentinel
	}

	cfg := flash.Config{
		DocRoot:     *root,
		EventLoops:  *loops,
		NumHelpers:  *helpers,
		ConnEngine:  *connEng,
		IdleTimeout: *idleTO,
		Cache: flash.CacheConfig{
			PathEntries:        *cachePaths,
			HeaderEntries:      hdrEntries,
			MapBytes:           *cacheMapMB << 20,
			ChunkBytes:         *cacheChunk << 10,
			L1Bytes:            l1Bytes,
			DisableCoalescing:  *noCoalesce,
			DisableReplication: *noReplica,
		},
		UserDirBase:        *userBase,
		UserDirSuffix:      *userSuffix,
		DisableHeaderAlign: *noAlign,
		SendfileThreshold:  *sfThresh,
		MaxBodyBytes:       *maxBody,
		MaxConns:           *maxConns,
		MaxConnsPerIP:      *maxConnsIP,
		ShedQueueDepth:     *shedQueue,
		RetryAfter:         *retryAfter,
		StaleIfError:       *staleIfError,
	}
	if *sfThresh == 0 {
		// The flag's "0 = off" maps to the config's negative sentinel
		// (a zero Config field means "use the default threshold").
		cfg.SendfileThreshold = -1
	}
	if *maxBody == 0 {
		cfg.MaxBodyBytes = -1 // flag's "0 = uncapped" → negative sentinel
	}
	if *upstream != "" {
		for _, b := range strings.Split(*upstream, ",") {
			if b = strings.TrimSpace(b); b != "" {
				cfg.Upstream = append(cfg.Upstream, b)
			}
		}
		cfg.UpstreamPrefix = *upPrefix
	}
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("flashd: %v", err)
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		cfg.AccessLog = bw
	}

	srv, err := flash.New(cfg)
	if err != nil {
		log.Fatalf("flashd: %v", err)
	}
	if *demo {
		// A native v2 handler: stream the body straight back. The copy
		// loop below never holds more than one pipe buffer — uploads of
		// any size flow through without buffering whole.
		srv.HandleFunc("POST", "/echo", func(w flash.ResponseWriter, r *flash.Request) {
			if ct := r.Headers["content-type"]; ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			if r.ContentLength >= 0 {
				w.Header().Set("Content-Length", fmt.Sprint(r.ContentLength))
			}
			if _, err := io.Copy(w, r.Body); err != nil {
				// Refused or truncated upload: report it when nothing
				// has been echoed yet (WriteHeader is a no-op once the
				// response started; the teardown then carries the news).
				if err == flash.ErrBodyTooLarge {
					w.WriteHeader(413)
				} else {
					w.WriteHeader(400)
				}
			}
		})
		// The same workload through an unmodified net/http handler.
		srv.Handle("POST", "/upload", flashhttp.Adapter(
			http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n, err := io.Copy(io.Discard, r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(map[string]int64{"bytes": n})
			})))
		// An origin simulator for proxy benchmarking: deterministic
		// body, stable ETag, honest 304s, tunable latency and freshness.
		srv.HandleFunc("GET", "/gen", func(w flash.ResponseWriter, r *flash.Request) {
			q := parseQuery(r.Query)
			n := 1024
			if v, err := strconv.Atoi(q["bytes"]); err == nil && v >= 0 {
				n = v
			}
			if d, err := time.ParseDuration(q["delay"]); err == nil && d > 0 {
				time.Sleep(d)
			}
			cc := q["cc"]
			if cc == "" {
				ttl := 60
				if v, err := strconv.Atoi(q["ttl"]); err == nil && v >= 0 {
					ttl = v
				}
				cc = fmt.Sprintf("max-age=%d", ttl)
			}
			etag := fmt.Sprintf(`"gen-%d"`, n)
			w.Header().Set("Cache-Control", cc)
			w.Header().Set("ETag", etag)
			if strings.Contains(r.Headers["if-none-match"], etag) {
				w.WriteHeader(304)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", fmt.Sprint(n))
			block := make([]byte, 32<<10)
			for i := range block {
				block[i] = byte('a' + i%26)
			}
			for left := n; left > 0; {
				m := len(block)
				if left < m {
					m = left
				}
				if _, err := w.Write(block[:m]); err != nil {
					return
				}
				left -= m
			}
		})
	}
	if *status {
		srv.HandleDynamic("/server-status", flash.DynamicFunc(
			func(req *httpmsg.Request) (int, string, io.ReadCloser, error) {
				// Stats() folds the per-shard snapshots with the
				// store-wide state (shared chunk tier, fill counters)
				// that no single shard owns; the per-shard breakdown
				// below is a separate snapshot round.
				st := srv.Stats()
				shards := srv.ShardStats()
				if parseQuery(req.Query)["format"] == "json" {
					js, err := json.MarshalIndent(statusJSON{
						ConnEngine: srv.ConnEngine(),
						Stats:      st,
						Shards:     shards,
						Proxy:      srv.ProxyStats(),
					}, "", "  ")
					if err != nil {
						return 500, "text/plain", io.NopCloser(strings.NewReader(err.Error())), nil
					}
					return 200, "application/json", io.NopCloser(strings.NewReader(string(js) + "\n")), nil
				}
				var b strings.Builder
				fmt.Fprintf(&b, "flashd status\n=============\n")
				fmt.Fprintf(&b, "conn engine:   %s\n", srv.ConnEngine())
				fmt.Fprintf(&b, "accepted:      %d\n", st.Accepted)
				fmt.Fprintf(&b, "active:        %d\n", st.Active)
				fmt.Fprintf(&b, "open conns:    %d (idle: %d)\n", st.OpenConns, st.IdleConns)
				fmt.Fprintf(&b, "responses:     %d\n", st.Responses)
				fmt.Fprintf(&b, "not found:     %d\n", st.NotFound)
				fmt.Fprintf(&b, "errors:        %d\n", st.Errors)
				fmt.Fprintf(&b, "bytes sent:    %d (sendfile: %d, copied: %d)\n",
					st.BytesSent, st.BytesSendfile, st.BytesCopied)
				perResp := 0.0
				if st.Responses > 0 {
					perResp = float64(st.GatherWrites) / float64(st.Responses)
				}
				fmt.Fprintf(&b, "gather writes: %d (%.2f socket writes per response)\n", st.GatherWrites, perResp)
				fmt.Fprintf(&b, "helper jobs:   %d\n", st.HelperJobs)
				fmt.Fprintf(&b, "file maps:     mmap=%d munmap=%d read-fallbacks=%d\n",
					st.FileMaps, st.FileUnmaps, st.MapFallbacks)
				fmt.Fprintf(&b, "dynamic calls: %d\n", st.DynamicCalls)
				fmt.Fprintf(&b, "path cache:    %.1f%% hit (%d/%d)\n",
					100*st.PathCache.HitRate(), st.PathCache.Hits, st.PathCache.Hits+st.PathCache.Misses)
				fmt.Fprintf(&b, "header cache:  %.1f%% hit\n", 100*st.HeaderCache.HitRate())
				fmt.Fprintf(&b, "map cache:     %.1f%% hit, %d bytes mapped (L1 + shared tier)\n",
					100*st.MapCache.HitRate(), st.MapCache.BytesMapped-st.MapCache.BytesUnmapped)
				fmt.Fprintf(&b, "shared tier:   %.1f%% hit, %d bytes resident\n",
					100*st.SharedChunks.HitRate(), st.SharedChunks.BytesMapped-st.SharedChunks.BytesUnmapped)
				fmt.Fprintf(&b, "fills:         started=%d joined=%d completed=%d failed=%d\n",
					st.Fills.Started, st.Fills.Joined, st.Fills.Completed, st.Fills.Failed)
				fmt.Fprintf(&b, "overload:      rejected=%d shed=%d shed-reval=%d fd-pressure=%d idle-reaped=%d\n",
					st.ConnsRejected, st.ShedRequests, st.ShedRevalidates,
					st.FdPressure, st.IdleReaped)
				if proxies := srv.ProxyStats(); len(proxies) > 0 {
					fmt.Fprintf(&b, "\nreverse proxy\n")
					fmt.Fprintf(&b, "requests:      %d (hits: %d, fills: %d, revalidated: %d, pass-through: %d, errors: %d, stale-served: %d)\n",
						st.ProxyRequests, st.ProxyHits, st.ProxyFills,
						st.ProxyRevalidated, st.ProxyPassThrough, st.ProxyErrors,
						st.ProxyStale)
					for _, p := range proxies {
						for _, bk := range p.Pool.Backends {
							fmt.Fprintf(&b, "%s %s: breaker=%s reqs=%d fail=%d dials=%d reuses=%d retries=%d idle=%d\n",
								p.Prefix, bk.Addr, bk.Breaker, bk.Requests, bk.Failures,
								bk.Dials, bk.Reuses, bk.Retries, bk.IdleConns)
						}
					}
				}
				fmt.Fprintf(&b, "\nper-shard (%d event loops)\n", srv.NumShards())
				for i, ss := range shards {
					fmt.Fprintf(&b, "shard %2d: accepted=%d open=%d idle=%d responses=%d bytes=%d path-hit=%.1f%%\n",
						i, ss.Accepted, ss.OpenConns, ss.IdleConns, ss.Responses, ss.BytesSent, 100*ss.PathCache.HitRate())
				}
				return 200, "text/plain", io.NopCloser(strings.NewReader(b.String())), nil
			}))
	}

	// Graceful shutdown on SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Println("flashd: shutting down")
		srv.Shutdown(5 * time.Second)
		os.Exit(0)
	}()

	log.Printf("flashd: serving %s on %s (%d shards, %d helpers each)",
		*root, *addr, srv.NumShards(), *helpers)
	if len(cfg.Upstream) > 0 {
		log.Printf("flashd: proxying %s to %s", cfg.UpstreamPrefix, strings.Join(cfg.Upstream, ", "))
	}
	if err := srv.ListenAndServe(*addr); err != nil && err != flash.ErrServerClosed {
		log.Fatalf("flashd: %v", err)
	}
}

// statusJSON is the ?format=json shape of /server-status.
type statusJSON struct {
	ConnEngine string                 `json:"conn_engine"`
	Stats      flash.Stats            `json:"stats"`
	Shards     []flash.Stats          `json:"shards"`
	Proxy      []flash.ProxyPoolStats `json:"proxy,omitempty"`
}

// parseQuery splits a raw query string into a key→value map; repeated
// keys keep the first value, un-valued keys map to "". No %-decoding —
// the status/demo knobs never need it.
func parseQuery(raw string) map[string]string {
	q := map[string]string{}
	for _, kv := range strings.Split(raw, "&") {
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if _, dup := q[k]; !dup {
			q[k] = v
		}
	}
	return q
}
