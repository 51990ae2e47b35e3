package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// env is what every run of this process shares.
type env struct {
	root        string // the repository
	contract    *contract
	buildDir    string // where flashd, docroots and logs go
	outDir      string // where span files go
	flashd      string
	buildS      float64
	pin         pinning
	connEngine  string  // ad-hoc only; "" = flashd's default
	cacheEngine string  // ad-hoc only
	rate        float64 // ad-hoc only: open-loop rate override, <0 = closed-loop capacity probe
	out         io.Writer
	seq         int
}

// metric is one named, united number.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is what one run of one workload produced.
type outcome struct {
	wl        *workload
	metrics   []metric
	attempted int64
	failed    int64
	fails     [numFailKinds]int64
	samples   int
	notes     []string // ungated figures worth a line in the report
	unstable  []string // generator-health warnings
	broken    []string // invariant violations: the run did not exercise its path
	budget    []layerRow
	spanFile  string
}

func (o *outcome) get(name string) float64 {
	for _, m := range o.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

func (o *outcome) put(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

// warmFor scales the issue's 3 s warm-up per 20 s window to the window
// actually run.
func warmFor(window time.Duration) time.Duration {
	return min(max(window*3/20, 200*time.Millisecond), 3*time.Second)
}

const leadIn = 300 * time.Millisecond

// rig is one set-up workload: generated inputs and a live server.
type rig struct {
	e    *env
	site *site
	srv  *server
	org  *origin
	dir  string
	rate float64
}

// setUp generates the inputs, starts flashd (and the origin), waits for
// readiness and warms up: every key once, then a stretch of the workload.
func (e *env) setUp(wl *workload, seed uint64, warm time.Duration) (r *rig, err error) {
	e.seq++
	r = &rig{e: e, site: newSite(wl, seed), rate: wl.rate}
	if e.rate != 0 && wl.open {
		r.rate = max(e.rate, 0)
	}
	r.dir = filepath.Join(e.buildDir, "work", fmt.Sprintf("%s-%d-%d", wl.name, os.Getpid(), e.seq))
	docroot := filepath.Join(r.dir, "docroot")
	defer func() {
		if err != nil {
			r.tearDown()
		}
	}()
	if err := os.MkdirAll(docroot, 0o755); err != nil {
		return r, err
	}
	var flags []string
	if wl.proxy {
		if r.org, err = startOrigin(seed); err != nil {
			return r, err
		}
		flags = append(flags, "-upstream", r.org.addr, "-upstream-prefix", proxyPrefix)
	} else if err := r.site.writeDocroot(docroot); err != nil {
		return r, err
	}
	if e.connEngine != "" {
		flags = append(flags, "-conn-engine", e.connEngine)
	}
	if e.cacheEngine != "" {
		flags = append(flags, "-cache-engine", e.cacheEngine)
	}
	if r.srv, err = startServer(e.flashd, docroot, filepath.Join(r.dir, "flashd.log"), e.pin, flags...); err != nil {
		return r, err
	}
	touch, err := runLoad(loadSpec{addr: r.srv.addr, site: r.site, conns: e.pin.conns, depth: 4, subwins: 1, touch: true, yield: wl.proxy, awake: e.pin.serverIDs})
	if err == nil && touch.failed > 0 {
		err = fmt.Errorf("touch pass: %d of %d requests failed %v", touch.failed, touch.attempted, failSummary(touch.fails))
	}
	if err != nil {
		return r, err
	}
	if wl.condFrac > 0 {
		if err := r.site.buildCond(); err != nil {
			return r, err
		}
	}
	res, err := runLoad(r.spec(0, warm, false))
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d requests failed %v", res.failed, res.attempted, failSummary(res.fails))
	}
	return r, err
}

func (r *rig) tearDown() {
	if r.srv != nil {
		r.srv.stop()
	}
	if r.org != nil {
		r.org.stop()
	}
	os.RemoveAll(r.dir)
}

func (r *rig) spec(lead, window time.Duration, traced bool) loadSpec {
	wl := r.site.wl
	return loadSpec{
		addr: r.srv.addr, site: r.site, conns: r.e.pin.conns,
		rate: r.rate, depth: wl.depth, lead: lead, window: window,
		subwins: max(int(window/subWindow), 1), traced: traced, limitNs: wl.limitNs(), yield: wl.proxy, awake: r.e.pin.serverIDs,
	}
}

// window is a measured window — or several, taken on successive
// instances of the server and added up: the client's record plus what
// the server's counters and /proc gained over it.
type window struct {
	load    *loadResult
	dur     time.Duration
	srv     serverCounters // gained over the window
	proc    procSample     // user, sys and ctxsw gained; hwmMiB at the end
	cpuReq  float64        // server CPU µs per validated response; the least of the windows added up
	parts   int            // how many windows were added up
	shards  int
	open    bool  // the load ran on a schedule
	limitNs int64 // the workload's latency limit, 0 for none
}

// subWindow is how finely a window's completions are counted.
const subWindow = 500 * time.Millisecond

func (r *rig) measure(dur time.Duration, traced bool) (*window, error) {
	w := &window{dur: dur, parts: 1, open: r.rate > 0, limitNs: r.site.wl.limitNs()}
	var sideErr error
	sample := func(c *serverCounters, p *procSample) func() {
		return func() {
			var doc *statusDoc
			var err error
			if *c, doc, err = r.srv.scrape(); err != nil {
				sideErr = err
				return
			}
			w.shards = len(doc.Shards)
			if *p, err = r.srv.proc(); err != nil {
				sideErr = err
			}
		}
	}
	// One scrape ahead of the window opens the status connection, so
	// the two that bracket the window add no accept of their own.
	if _, _, err := r.srv.scrape(); err != nil {
		return nil, err
	}
	var s0 serverCounters
	var p0 procSample
	spec := r.spec(leadIn, dur, traced)
	spec.atOpen, spec.atClose = sample(&s0, &p0), sample(&w.srv, &w.proc)
	var err error
	if w.load, err = runLoad(spec); err != nil {
		return nil, err
	}
	w.srv = w.srv.sub(s0)
	w.proc.user, w.proc.sys, w.proc.ctxsw = w.proc.user-p0.user, w.proc.sys-p0.sys, w.proc.ctxsw-p0.ctxsw
	w.cpuReq = float64((w.proc.user + w.proc.sys).Microseconds()) / float64(max(w.validated(), 1))
	return w, sideErr
}

// add appends a window measured after w (on another instance of the
// server) to it. Counts add up; CPU per request is the least of the
// instances' — on conn_churn three instances of one binary spent 81, 95
// and 112 µs per connection, mostly a matter of how the Go collector
// paced itself in each, and like a stall that only ever adds.
func (w *window) add(o *window) {
	w.cpuReq = min(w.cpuReq, o.cpuReq)
	w.load.add(o.load, int64(w.dur))
	w.dur += o.dur
	w.parts += o.parts
	w.srv = w.srv.add(o.srv)
	w.proc.user, w.proc.sys, w.proc.ctxsw = w.proc.user+o.proc.user, w.proc.sys+o.proc.sys, w.proc.ctxsw+o.proc.ctxsw
	w.proc.hwmMiB = max(w.proc.hwmMiB, o.proc.hwmMiB)
}

// rates returns the request and body-byte rates of the window, and
// (max-min)/median of the sub-window request rates.
//
// Open loop: completions over the whole window — the schedule sets the
// rate, a stall only delays completions. Closed loop: the rate of the
// sub-window nine tenths of the way up the ranking, for the reason
// blockQuantile gives: the host's stalls only ever take throughput
// away, in some runs from a few sub-windows and in others from half of
// them, and the quiet sub-windows are what the server can do.
func (w *window) rates() (rps, bps, spread float64) {
	sub := w.dur.Seconds() / float64(len(w.load.win))
	n, b := make([]float64, 0, len(w.load.win)), make([]float64, 0, len(w.load.win))
	var bytes int64
	for _, c := range w.load.win {
		n, b = append(n, float64(c.n)/sub), append(b, float64(c.bytes)/sub)
		bytes += c.bytes
	}
	spread = (slices.Max(n) - slices.Min(n)) / median(n)
	if w.open {
		return float64(w.validated()) / w.dur.Seconds(), float64(bytes) / w.dur.Seconds(), spread
	}
	slices.Sort(n)
	slices.Sort(b)
	quiet := int((1 - quietBlocks) * float64(len(n)-1))
	return n[quiet], b[quiet], spread
}

func (w *window) validated() (n int64) {
	for _, c := range w.load.win {
		n += c.n
	}
	return n
}

const us = 1e3 // ns per µs

// endToEnd fills in the gated metrics (set-up time aside).
func (w *window) endToEnd(o *outcome) {
	l := w.load
	rps, bps, _ := w.rates()
	o.put("throughput_rps", "1/s", rps)
	o.put("goodput_mbps", "MB/s", bps/1e6)
	p50, _ := l.lat.blockQuantile(0.50)
	o.put("latency_p50_us", "us", p50/us)
	p99, blocks := l.lat.blockQuantile(0.99)
	note := fmt.Sprintf("not gated: p99 %.0f us over %d blocks, pooled p99 %.0f us, p99.9 %.0f us, max %.0f us",
		p99/us, blocks, l.lat.quantile(0.99)/us, l.lat.quantile(0.999)/us, l.lat.quantile(1)/us)
	if l := w.limitNs; l > 0 {
		note += fmt.Sprintf("; limit p99 <= %.0f us, %.4f of the requests over it", float64(l)/us, ratio(w.load.overLimit, w.load.attempted, 0))
	}
	o.notes = append(o.notes, note)
	o.put("success_frac", "ratio", 1-ratio(l.failed, l.attempted, 1))
	o.put("server_cpu_us_per_req", "us", w.cpuReq)
	o.put("server_rss_mb", "MiB", w.proc.hwmMiB)
	o.attempted, o.failed, o.fails, o.samples = l.attempted, l.failed, l.fails, l.lat.count()
}

// health flags a window whose generator, not the server, may have set
// the numbers.
func (w *window) health(o *outcome, offered float64) {
	l := w.load
	lag, _ := l.lag.blockQuantile(0.5)
	p50, _ := l.lat.blockQuantile(0.5)
	if lag > p50/2 {
		o.unstable = append(o.unstable, fmt.Sprintf("generator ran late: sched_lag_p50 %.0f us is over half of latency_p50 %.0f us", lag/us, p50/us))
	}
	if done := w.validated(); offered > 0 && float64(done) < 0.99*float64(l.attempted) {
		o.unstable = append(o.unstable, fmt.Sprintf("backlog: %d completions for %d arrivals inside the window (offered %.0f/s)", done, l.attempted, offered))
	}
}

func failSummary(f [numFailKinds]int64) string {
	s := "("
	for k := failRefused; k < numFailKinds; k++ {
		if f[k] > 0 {
			s += fmt.Sprintf(" %s=%d", failNames[k], f[k])
		}
	}
	return s + " )"
}

// runGated is the untraced run. The workload is set up `setups` times,
// each time on a fresh flashd, and each instance is measured for its
// share of the window: setup_s is the median set-up, everything else
// comes from the shares added up. Three instances a few seconds apart
// see more of the host's moods than one window on one instance, and of
// the server's own: which of the rhythms two saturated CPUs can fall
// into (hot_pipelined: 85k or 115k req/s) is settled per instance, and
// the quiet-window statistics then describe the best of three draws
// rather than one.
func (e *env) runGated(wl *workload, seed uint64, dur time.Duration, setups int) (*outcome, error) {
	o := &outcome{wl: wl}
	var total *window
	var setupS []float64
	var rate float64
	for i := 0; i < setups; i++ {
		t := time.Now()
		r, err := e.setUp(wl, seed, warmFor(dur))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		w, err := r.measure(dur/time.Duration(setups), false)
		r.tearDown()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if rate = r.rate; total == nil {
			total = w
		} else {
			total.add(w)
		}
	}
	o.put("setup_s", "s", median(setupS))
	total.endToEnd(o)
	total.health(o, rate)
	o.broken = checkInvariants(wl, total, total.perLayer(), e.pin.conns)
	return o, nil
}

// perLayer derives the status-, /proc- and client-sourced layer metrics
// of a window.
func (w *window) perLayer() []metric {
	l := w.load
	lat := &l.lat
	lag50, _ := l.lag.blockQuantile(0.50)
	lag99, _ := l.lag.blockQuantile(0.99)
	p99, blocks := lat.blockQuantile(0.99)
	d := w.srv
	reqs := max(w.validated(), 1)
	per := func(x float64) float64 { return x / float64(reqs) }
	l1 := d.MapCache.sub(d.SharedChunks)
	_, _, spread := w.rates()
	return []metric{
		{"cache.path_hit_ratio", "ratio", d.PathCache.hitRatio()},
		{"cache.header_hit_ratio", "ratio", d.HeaderCache.hitRatio()},
		// A chunk lookup probes the L1 and, on a miss there, the shared
		// tier: it hits unless both miss.
		{"cache.chunk_hit_ratio", "ratio", 1 - ratio(d.SharedChunks.Misses, l1.Hits+l1.Misses, 0)},
		{"cache.shared_hit_ratio", "ratio", d.SharedChunks.hitRatio()},
		{"cache.l1_hit_ratio", "ratio", l1.hitRatio()},
		{"cache.fills_per_req", "count", per(float64(d.Fills.Started))},
		{"cache.fill_join_ratio", "ratio", ratio(d.Fills.Joined, d.Fills.Joined+d.Fills.Started, 0)},
		{"cache.fill_fail_frac", "ratio", ratio(d.Fills.Failed, d.Fills.Started, 0)},
		{"cache.evicted_bytes_per_req", "B", per(float64(d.SharedChunks.BytesUnmapped))},
		{"flash.helper_jobs_per_req", "count", per(float64(d.HelperJobs))},
		{"flash.sendfile_byte_frac", "ratio", ratio(d.BytesSendfile, d.BytesSent, 0)},
		{"flash.accepts_per_req", "count", per(float64(d.Accepted))},
		{"flash.rejected_per_req", "count", per(float64(d.ConnsRejected))},
		{"flash.shed_per_req", "count", per(float64(d.ShedRequests))},
		{"flash.errors_per_req", "count", per(float64(d.Errors))},
		{"flash.cpu_user_us_per_req", "us", per(float64(w.proc.user.Microseconds()))},
		{"flash.cpu_sys_us_per_req", "us", per(float64(w.proc.sys.Microseconds()))},
		{"flash.ctxsw_per_req", "count", per(float64(w.proc.ctxsw))},
		{"flash.proxy_hit_ratio", "ratio", ratio(d.ProxyHits, d.ProxyRequests, 0)},
		{"flash.proxy_reval_frac", "ratio", ratio(d.ProxyRevalidated, d.ProxyRequests, 0)},
		{"flash.proxy_fill_frac", "ratio", ratio(d.ProxyFills, d.ProxyRequests, 0)},
		{"flash.proxy_error_frac", "ratio", ratio(d.ProxyErrors, d.ProxyRequests, 0)},
		{"upstream.reuse_ratio", "ratio", ratio(d.reuses, d.reuses+d.dials, 0)},
		{"upstream.dials_per_origin_req", "count", ratio(d.dials, d.originReqs, 0)},
		{"upstream.retries", "count", float64(d.retries)},
		{"upstream.failures", "count", float64(d.originFails)},
		{"bench.sched_lag_p50_us", "us", orZero(lag50 / us)},
		{"bench.sched_lag_p99_us", "us", orZero(lag99 / us)},
		{"bench.client_cpu_us_per_req", "us", per(float64(l.clientCPU.Microseconds()))},
		{"bench.client_busy_frac", "ratio", 1 - ratio(l.idlePolls, l.polls, 1)},
		{"bench.window_spread", "ratio", spread},
		{"bench.over_limit_frac", "ratio", ratio(l.overLimit, l.attempted, 0)},
		{"bench.fail_frac", "ratio", ratio(l.failed, l.attempted, 0)},
		{"bench.latency_p99_us", "us", p99 / us},
		{"bench.latency_p50_all_us", "us", lat.quantile(0.50) / us},
		{"bench.latency_p99_all_us", "us", lat.quantile(0.99) / us},
		{"bench.latency_p999_us", "us", lat.quantile(0.999) / us},
		{"bench.latency_max_us", "us", lat.quantile(1) / us},
		{"bench.samples", "count", float64(lat.count())},
		{"bench.latency_blocks", "count", float64(blocks)},
	}
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// sub is the per-field difference of two scrapes, add the sum of two
// differences.
func (c serverCounters) sub(o serverCounters) serverCounters { return c.combine(o, -1) }
func (c serverCounters) add(o serverCounters) serverCounters { return c.combine(o, +1) }

// combine returns c + k*o per field, for k of 1 or -1.
func (c serverCounters) combine(o serverCounters, k int64) serverCounters {
	d := c
	d.Accepted += uint64(k) * o.Accepted
	d.Responses += uint64(k) * o.Responses
	d.Errors += uint64(k) * o.Errors
	d.HelperJobs += uint64(k) * o.HelperJobs
	d.BytesSent += k * o.BytesSent
	d.BytesSendfile += k * o.BytesSendfile
	d.PathCache = c.PathCache.combine(o.PathCache, k)
	d.HeaderCache = c.HeaderCache.combine(o.HeaderCache, k)
	d.MapCache = c.MapCache.combine(o.MapCache, k)
	d.SharedChunks = c.SharedChunks.combine(o.SharedChunks, k)
	d.Fills.Started += uint64(k) * o.Fills.Started
	d.Fills.Joined += uint64(k) * o.Fills.Joined
	d.Fills.Completed += uint64(k) * o.Fills.Completed
	d.Fills.Failed += uint64(k) * o.Fills.Failed
	d.ProxyRequests += uint64(k) * o.ProxyRequests
	d.ProxyHits += uint64(k) * o.ProxyHits
	d.ProxyRevalidated += uint64(k) * o.ProxyRevalidated
	d.ProxyFills += uint64(k) * o.ProxyFills
	d.ProxyPassThrough += uint64(k) * o.ProxyPassThrough
	d.ProxyErrors += uint64(k) * o.ProxyErrors
	d.ConnsRejected += uint64(k) * o.ConnsRejected
	d.ShedRequests += uint64(k) * o.ShedRequests
	d.originReqs += k * o.originReqs
	d.originFails += k * o.originFails
	d.dials += k * o.dials
	d.reuses += k * o.reuses
	d.retries += k * o.retries
	return d
}
