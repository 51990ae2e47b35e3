package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/failpoint"
	"repro/internal/flash"
	"repro/internal/httpmsg"
	"repro/internal/upstream"
)

// This is the only file of the benchmark that imports repro/internal.
// It replays a workload's request stream through each layer's public
// functions, one layer at a time, so that the traced run can say what a
// request costs in user space, layer by layer — and, by subtraction
// from an in-process serial round trip, what it costs everywhere else.

// layerReq is one request of the stream as the layers see it.
type layerReq struct {
	wire    []byte
	urlPath string
	fsPath  string // the file behind it; "" for a proxied object
	size    int64
	etag    string
	cond    bool // carries If-None-Match, draws a 304
	origin  bool // costs an origin round trip (proxy revalidation or fill)

	// Filled in by the replay: the chunk- and header-cache key (the
	// file's path, or internal/flash's cache key for a proxied target)
	// and the pathname-cache key (the request path for a file, the cache
	// key again for a proxied target).
	trans, pkey string
}

// keyed fills in the cache keys of reqs.
func keyed(reqs []layerReq) []layerReq {
	for i := range reqs {
		q := &reqs[i]
		q.trans, q.pkey = q.fsPath, q.urlPath
		if q.fsPath == "" {
			q.trans = "\x00proxy:" + proxyPrefix + "\x00" + q.urlPath
			q.pkey = q.trans
		}
	}
	return reqs
}

// layerInput is a workload's stream plus the sizing of the server it
// ran against.
type layerInput struct {
	warm       []layerReq // every object once, as the set-up's touch pass did
	reqs       []layerReq // the measured stream's first requests
	shards     int        // event loops of the measured server
	acceptsReq float64    // accepted connections per request
	originAddr string     // proxy workloads: the driver's origin
	originPath string     // a cacheable path there
	log        *spanLog
}

// layerRow is one line of the budget table.
type layerRow struct {
	name     string
	nsCall   float64 // median over batches of 1024 calls
	callsReq float64 // calls per request on this workload
	inBudget bool    // false: already inside another row's span
}

// Defaults of flash.Config, which the measured flashd runs with.
const (
	defaultCacheEntries = 6000
	defaultMapBytes     = 64 << 20
	nm304Slot           = "304:1.1:ka" // internal/flash's header-cache slot for a keep-alive 304
)

const batchCalls = 1024

var layerSink uint64

// replay holds the state of one replay.
type replay struct {
	in    layerInput
	root  int64
	files map[string]*os.File
	store *cache.ShardedStore
	view  cache.View
	mtime int64
	err   error // the first failure of a timed call; the rows are void then
}

func (r *replay) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// timeBatches calls fn(i) for i in [0, calls), a batch at a time — each
// batch a span under the replay root, so the clock is read twice per
// batch, not per call — and returns the median batch's ns per call.
func (r *replay) timeBatches(name string, calls, batch int, fn func(i int)) float64 {
	if calls == 0 {
		return 0
	}
	var per []float64
	for done := 0; done < calls; done += batch {
		m := min(batch, calls-done)
		t0 := r.in.log.now()
		for i := done; i < done+m; i++ {
			fn(i)
		}
		t1 := r.in.log.now()
		r.in.log.add(name, r.root, 0, t0, t1)
		per = append(per, float64(t1-t0)/float64(m))
	}
	return median(per)
}

// file returns the open file at path (nil, with the failure noted, when
// it cannot be opened).
func (r *replay) file(path string) *os.File {
	f := r.files[path]
	if f == nil {
		var err error
		if f, err = os.Open(path); err != nil {
			r.fail(err)
			return nil
		}
		r.files[path] = f
	}
	return f
}

// chunked reports whether the body walks the chunk tier (as opposed to
// sendfile, or no body at all).
func (q *layerReq) chunked() bool {
	return !q.cond && (q.fsPath == "" || q.size < flash.DefaultSendfileThreshold)
}

func (r *replay) meta(q *layerReq) httpmsg.ResponseMeta {
	m := httpmsg.ResponseMeta{
		Status: 200, Proto: "HTTP/1.1", ContentType: "application/octet-stream",
		ContentLength: q.size, ModTime: time.Unix(r.mtime, 0), Date: time.Unix(r.mtime, 0),
		KeepAlive: true, ETag: q.etag,
	}
	if q.cond {
		m.Status, m.ContentLength, m.ContentType = 304, -1, ""
	}
	return m
}

// fill loads one object through a single-flight fill exactly as a
// helper does: JoinFill, then per chunk read, Publish and the
// subscriber's ChunkAt.
func (r *replay) fill(v cache.View, q *layerReq, proxyBody []byte) {
	f, started := v.JoinFill(q.trans, q.size, r.mtime)
	if !started {
		return
	}
	var src io.ReaderAt = bytes.NewReader(proxyBody)
	if q.fsPath != "" {
		file := r.file(q.fsPath)
		if file == nil {
			f.Fail(r.err)
			return
		}
		src = file
	}
	for i := 0; i < f.NumChunks(); i++ {
		off, n := f.ChunkRange(i)
		buf := make([]byte, n)
		if _, err := src.ReadAt(buf, off); err != nil && err != io.EOF {
			r.fail(err)
			f.Fail(err)
			return
		}
		f.Publish(buf)
		c, _, _ := f.ChunkAt(i, func() {})
		if c == nil { // the final Publish retired the fill: the chunk is in the cache
			c = v.Lookup(cache.ChunkKey{Path: q.trans, Index: i}, r.mtime)
		}
		if c != nil {
			v.Release(c)
		}
	}
}

// walkCounts is how often one pass over the stream called each layer.
type walkCounts struct {
	reqs, headerGets, lookups, headerBuilds, fills, fillChunks, originReqs float64
}

// walk serves the stream from the store the way the event loop does and
// counts the calls; the store is left as warm as the server's.
func (r *replay) walk(reqs []layerReq) walkCounts {
	var n walkCounts
	v := r.view
	proxyBody := make([]byte, proxyBodyBytes)
	var hdr []byte
	for i := range reqs {
		q := &reqs[i]
		n.reqs++
		tr := q.trans
		if _, ok := v.GetPath(q.pkey); !ok {
			v.PutPath(q.pkey, cache.PathEntry{Translated: tr, Size: q.size, ModTime: r.mtime, ETag: q.etag})
		}
		if q.origin {
			n.originReqs++
		}
		slot := ""
		if q.cond {
			slot = nm304Slot
		}
		n.headerGets++
		if _, ok := v.GetHeader(tr, slot, r.mtime); !ok {
			n.headerBuilds++
			hdr = httpmsg.AppendHeader(hdr[:0], r.meta(q), true)
			v.PutHeader(tr, slot, cache.HeaderEntry{Header: slices.Clone(hdr), Size: q.size, ModTime: r.mtime})
		}
		if !q.chunked() {
			continue
		}
		for idx := 0; idx < r.store.NumChunks(q.size); idx++ {
			n.lookups++
			c := v.Lookup(cache.ChunkKey{Path: tr, Index: idx}, r.mtime)
			if c == nil {
				n.fills++
				n.fillChunks += float64(r.store.NumChunks(q.size))
				r.fill(v, q, proxyBody)
				break // the fill streamed the rest of the file to this request
			}
			v.Release(c)
		}
	}
	return n
}

// replayLayers produces the budget rows for one workload.
func replayLayers(in layerInput) ([]layerRow, error) {
	var rows []layerRow
	log := in.log
	start := log.now()
	r := &replay{in: in, files: map[string]*os.File{}, mtime: fileMtime.Unix()}
	r.root = log.add("replay", 0, 0, start, start)
	defer func() {
		for _, f := range r.files {
			f.Close()
		}
		log.spans[r.root-1].End = log.now()
	}()
	opts := cache.StoreOptions{
		Shards: max(in.shards, 1), PathEntries: defaultCacheEntries,
		HeaderEntries: defaultCacheEntries, MapBytes: defaultMapBytes,
	}
	r.store = cache.NewShardedStore(opts)
	defer r.store.Close()
	r.view = r.store.View(0)

	r.walk(keyed(in.warm))
	reqs := keyed(in.reqs)
	n := r.walk(reqs)
	per := func(x float64) float64 { return x / n.reqs }
	row := func(name string, ns, calls float64) {
		rows = append(rows, layerRow{name: name, nsCall: ns, callsReq: calls, inBudget: true})
	}

	// Request parsing lower-cases header names in place, so every call
	// gets its own copy of the bytes that went over the wire.
	wires := make([][]byte, len(reqs))
	for i := range reqs {
		wires[i] = slices.Clone(reqs[i].wire)
	}
	var hreq httpmsg.Request
	row("httpmsg.parse_ns", r.timeBatches("httpmsg.parse_ns", len(reqs), batchCalls, func(i int) {
		hreq.Reset()
		if err := hreq.ParseBytes(wires[i]); err != nil {
			r.fail(err)
		}
	}), 1)

	var hdr []byte
	row("httpmsg.header_build_ns", r.timeBatches("httpmsg.header_build_ns", len(reqs), batchCalls, func(i int) {
		hdr = httpmsg.AppendHeader(hdr[:0], r.meta(&reqs[i]), true)
	}), per(n.headerBuilds))

	v := r.view
	row("cache.path_get_ns", r.timeBatches("cache.path_get_ns", len(reqs), batchCalls, func(i int) {
		if _, ok := v.GetPath(reqs[i].pkey); ok {
			layerSink++
		}
	}), 1)
	row("cache.header_get_ns", r.timeBatches("cache.header_get_ns", len(reqs), batchCalls, func(i int) {
		slot := ""
		if reqs[i].cond {
			slot = nm304Slot
		}
		if _, ok := v.GetHeader(reqs[i].trans, slot, r.mtime); ok {
			layerSink++
		}
	}), per(n.headerGets))

	// The chunk rows run over the requests whose bodies use the chunk
	// tier, at the hit ratio the walk left behind.
	var chunked []*layerReq
	var ckeys []cache.ChunkKey
	for i := range reqs {
		if q := &reqs[i]; q.chunked() {
			chunked = append(chunked, q)
			ckeys = append(ckeys, cache.ChunkKey{Path: q.trans})
		}
	}
	row("cache.chunk_lookup_ns", r.timeBatches("cache.chunk_lookup_ns", len(chunked), batchCalls, func(i int) {
		if c := v.Lookup(ckeys[i], r.mtime); c != nil {
			v.Release(c)
		}
	}), per(n.lookups))

	// Fills and inserts-at-budget run against small stores, so that
	// every call misses and every insert evicts.
	opts.MapBytes = 4 << 20
	small := cache.NewShardedStore(opts)
	defer small.Close()
	sv := small.View(0)
	proxyBody := make([]byte, proxyBodyBytes)
	row("cache.fill_ns", r.timeBatches("cache.fill_ns", min(len(chunked), 512), 64, func(i int) {
		r.fill(sv, chunked[i], proxyBody)
	}), per(n.fills))

	chunk := make([]byte, cache.DefaultChunkSize)
	paths := make([]string, 4096)
	for i := range paths {
		paths[i] = fmt.Sprintf("/evict/%d", i)
	}
	ins := r.timeBatches("cache.insert_evict_ns", 4*len(paths), batchCalls, func(i int) {
		c := sv.Insert(cache.ChunkKey{Path: paths[i%len(paths)]}, chunk, int64(len(chunk)), r.mtime)
		sv.Release(c)
	})
	rows = append(rows, layerRow{name: "cache.insert_evict_ns", nsCall: ins, callsReq: per(n.fillChunks)})

	// Origin leg (proxy workloads only; zero calls elsewhere).
	var rt, parse, fresh float64
	if in.originAddr != "" {
		var err error
		if rt, parse, fresh, err = r.originLeg(); err != nil {
			return nil, err
		}
	}
	row("httpmsg.resp_parse_ns", parse, per(n.originReqs))
	row("upstream.roundtrip_ns", rt, per(n.originReqs))
	row("upstream.freshness_ns", fresh, per(n.originReqs))

	// Disarmed failpoint guards on the path of one request: the write
	// of each response, the accept of each connection, each chunk a
	// fill reads, and the read-head and response sites of each origin
	// round trip.
	probe := failpoint.New("bench/probe")
	sites := 1 + in.acceptsReq + per(n.fillChunks) + 2*per(n.originReqs)
	row("failpoint.eval_ns", r.timeBatches("failpoint.eval_ns", 64*batchCalls, 16*batchCalls, func(int) {
		if failpoint.Armed() {
			layerSink++
		}
		if probe.Eval() != nil {
			layerSink++
		}
	}), sites)
	if r.err != nil {
		return nil, fmt.Errorf("layer replay: %w", r.err)
	}
	return rows, nil
}

// originLeg times what one origin exchange costs the proxy: a pooled
// keep-alive round trip, parsing the origin's response head, and the
// freshness verdict on it.
func (r *replay) originLeg() (rt, parse, fresh float64, err error) {
	in := r.in
	pool, err := upstream.New(upstream.Config{Backends: []string{in.originAddr}})
	if err != nil {
		return 0, 0, 0, err
	}
	defer pool.Close()
	var rtErr error
	rt = r.timeBatches("upstream.roundtrip_ns", 512, 64, func(int) {
		resp, err := pool.RoundTrip(&upstream.Request{Method: "GET", Target: in.originPath, Host: in.originAddr})
		if err != nil {
			rtErr = err
			return
		}
		io.Copy(io.Discard, resp)
		resp.Close()
	})
	if rtErr != nil {
		return 0, 0, 0, fmt.Errorf("origin round trip: %w", rtErr)
	}

	// The head the origin really sends, fetched once over a raw socket.
	c, err := net.DialTimeout("tcp", in.originAddr, 2*time.Second)
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", in.originPath, in.originAddr)
	var head []byte
	br := bufio.NewReader(c)
	for !bytes.HasSuffix(head, []byte("\r\n\r\n")) {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return 0, 0, 0, errors.New("origin closed before sending a response head")
		}
		head = append(head, line...)
	}
	heads := make([][]byte, batchCalls)
	for i := range heads {
		heads[i] = slices.Clone(head)
	}
	var hresp httpmsg.Response
	parse = r.timeBatches("httpmsg.resp_parse_ns", 8*batchCalls, batchCalls, func(i int) {
		hresp.Reset()
		if err := hresp.ParseBytes(heads[i%batchCalls]); err != nil {
			r.fail(err)
		}
	})
	now := time.Now()
	fresh = r.timeBatches("upstream.freshness_ns", 8*batchCalls, batchCalls, func(int) {
		if upstream.EvalFreshness(&hresp, now).Storable {
			layerSink++
		}
	})
	return rt, parse, fresh, nil
}

// serveInProcess runs flash.New + Serve inside the driver with the
// default configuration, for the serial one-request-at-a-time loop.
func serveInProcess(docroot, originAddr string) (addr string, stop func(), err error) {
	cfg := flash.Config{DocRoot: docroot}
	if originAddr != "" {
		cfg.Upstream, cfg.UpstreamPrefix = []string{originAddr}, proxyPrefix
	}
	srv, err := flash.New(cfg)
	if err != nil {
		return "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	return l.Addr().String(), func() { srv.Close(); <-done }, nil
}
