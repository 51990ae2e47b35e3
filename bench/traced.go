package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// replayRequests is how much of the stream the layer replay covers.
const replayRequests = 8192

// layerReqs converts generator requests to what layers.go replays.
func layerReqs(docroot string, proxy bool, rs []*request) []layerReq {
	out := make([]layerReq, len(rs))
	for i, rq := range rs {
		o := rq.obj
		out[i] = layerReq{wire: rq.wire, urlPath: o.urlPath, size: o.size, etag: o.etag, cond: rq.status == 304}
		if proxy {
			out[i].origin = !strings.HasPrefix(o.urlPath, proxyPrefix+"h/")
		} else {
			out[i].fsPath = filepath.Join(docroot, o.urlPath)
		}
	}
	return out
}

// runTraced is the traced run. It measures half the window untraced
// (the status-, /proc- and generator-sourced layer metrics, and the
// baseline for the tracing overhead), the other half with a span tree
// per request, then replays the stream through the layers and runs the
// serial loop for the budget table. End-to-end numbers never come from
// here.
func (e *env) runTraced(wl *workload, seed uint64, window time.Duration) (*outcome, error) {
	o := &outcome{wl: wl}
	r, err := e.setUp(wl, seed, warmFor(window))
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	defer r.tearDown()
	base, err := r.measure(window/2, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	traced, err := r.measure(window/2, true)
	if err != nil {
		return nil, fmt.Errorf("%s: traced window: %w", wl.name, err)
	}
	o.metrics = base.perLayer()
	o.attempted, o.failed = base.load.attempted+traced.load.attempted, base.load.failed+traced.load.failed
	for k := range o.fails {
		o.fails[k] = base.load.fails[k] + traced.load.fails[k]
	}
	o.samples = base.load.lat.count()
	base.health(o, r.rate)
	o.broken = checkInvariants(wl, base, o.metrics, e.pin.conns)

	// Client-side spans of the traced window.
	log := newSpanLog()
	log.addRequests(wl.name, traced.load.spans, int64(traced.load.epoch.Sub(log.epoch)))
	var connect, write, ttfb, body samples
	for _, s := range traced.load.spans {
		if s.fail != passed {
			continue
		}
		from := s.start
		if s.connected > 0 {
			connect.add(0, s.connected-s.start)
			from = s.connected
		}
		write.add(0, s.written-from)
		ttfb.add(0, s.ttfb-s.written)
		body.add(0, s.end-s.ttfb)
	}
	o.put("bench.connect_us", "us", orZero(connect.quantile(0.5)/us))
	o.put("bench.write_us", "us", write.quantile(0.5)/us)
	o.put("bench.ttfb_us", "us", ttfb.quantile(0.5)/us)
	o.put("bench.body_us", "us", body.quantile(0.5)/us)
	// Tracing overhead: lost throughput where the loop is closed, added
	// median latency where the rate is fixed.
	tp50, _ := traced.load.lat.blockQuantile(0.5)
	bp50, _ := base.load.lat.blockQuantile(0.5)
	overhead := tp50/bp50 - 1
	if r.rate == 0 {
		tr, _, _ := traced.rates()
		br, _, _ := base.rates()
		overhead = 1 - tr/br
	}
	o.put("bench.trace_overhead_frac", "ratio", overhead)
	o.put("bench.build_s", "s", e.buildS)

	// Layer replay of the same stream.
	docroot := filepath.Join(r.dir, "docroot")
	pk := r.site.picker(r.site.runs, 0, 1)
	stream := make([]*request, replayRequests)
	for i := range stream {
		stream[i] = pk.next()
	}
	warm := make([]*request, len(r.site.objs))
	for i, ob := range r.site.objs {
		warm[i] = newRequest(ob, "", false)
	}
	in := layerInput{
		warm: layerReqs(docroot, wl.proxy, warm), reqs: layerReqs(docroot, wl.proxy, stream),
		shards: base.shards, acceptsReq: o.get("flash.accepts_per_req"), log: log,
	}
	if wl.proxy {
		in.originAddr, in.originPath = r.org.addr, r.site.objs[0].urlPath
	}
	if o.budget, err = replayLayers(in); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	sum := 0.0
	for _, row := range o.budget {
		o.put(row.name, "ns", row.nsCall)
		if row.inBudget {
			sum += row.nsCall * row.callsReq
		}
	}

	// Serial loop: flash.New + Serve inside the driver, one connection,
	// one request at a time, over the same keys.
	serial, err := e.serialLoop(r, docroot)
	if err != nil {
		return nil, fmt.Errorf("%s: serial loop: %w", wl.name, err)
	}
	o.put("flash.serial_ns_per_req", "ns", serial)
	o.put("flash.unaccounted_ns_per_req", "ns", serial-sum)

	if o.spanFile, err = log.write(e.outDir, wl.name, e.fingerprint(seed)); err != nil {
		return nil, err
	}
	return o, nil
}

// serialLoop returns the nanoseconds one request takes end to end when
// nothing overlaps it.
func (e *env) serialLoop(r *rig, docroot string) (float64, error) {
	originAddr := ""
	if r.org != nil {
		originAddr = r.org.addr
	}
	addr, stop, err := serveInProcess(docroot, originAddr)
	if err != nil {
		return 0, err
	}
	defer stop()
	// The server's goroutines share the driver's CPUs here: yield to them.
	touch, err := runLoad(loadSpec{addr: addr, site: r.site, conns: 1, depth: 1, subwins: 1, touch: true, yield: true})
	if err != nil {
		return 0, err
	}
	res, err := runLoad(loadSpec{
		addr: addr, site: r.site, conns: 1, depth: 1,
		lead: 100 * time.Millisecond, window: time.Second, subwins: 1, yield: true,
	})
	if err != nil {
		return 0, err
	}
	if n := touch.failed + res.failed; n > 0 {
		return 0, fmt.Errorf("%d requests failed", n)
	}
	w := window{load: res}
	return 1e9 / float64(w.validated()), nil // a one-second window
}
