package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workload is one traffic mix. The six below are final: later issues
// cite them by name, and the open-loop rates never change once
// committed (see README.md, "Open-loop rates"). Why each exists is in
// BENCHMARK.json and README.md.
type workload struct {
	name string

	open    bool    // open loop (Poisson arrivals at rate) or closed loop (depth in flight)
	rate    float64 // open loop: arrivals per second, summed over all connections
	depth   int     // closed loop: requests in flight per connection
	churn   bool    // one request per TCP connection (Connection: close)
	limitUs float64 // latency limit on p99; 0 = none (closed loop)

	// Static docroot: files sized by cycling classes over popularity
	// rank, requested Zipf(alpha) (alpha 0 = uniform); condFrac of the
	// requests carry If-None-Match and expect a 304.
	files    int
	classes  []int64
	alpha    float64
	condFrac float64

	// proxy: flashd fronts the driver's origin (see origin.go).
	proxy bool

	// pinnedChunkHit, when non-zero, is the cache.chunk_hit_ratio this
	// workload must reproduce within ±0.05 (see invariants.go).
	pinnedChunkHit float64
}

const kib = 1 << 10

var hotClasses = []int64{512, 4 * kib, 8 * kib, 12 * kib, 16 * kib, 20 * kib, 28 * kib, 32 * kib}

var workloads = []*workload{
	{
		name: "hot_small",
		open: true, rate: 6000, limitUs: 1000,
		files: 512, classes: hotClasses, alpha: 1.0, condFrac: 0.10,
	},
	{
		name:  "hot_pipelined",
		depth: 16,
		files: 512, classes: hotClasses, alpha: 1.0,
	},
	{
		name:  "cold_zipf",
		depth: 4,
		files: 4096, classes: []int64{8 * kib, 32 * kib, 96 * kib, 160 * kib}, alpha: 0.6,
		pinnedChunkHit: 0.74,
	},
	{
		name:  "large_sendfile",
		depth: 1,
		files: 8, classes: []int64{4 << 20}, alpha: 0,
	},
	{
		name: "conn_churn",
		open: true, rate: 4000, churn: true, limitUs: 2000,
		files: 512, classes: hotClasses, alpha: 1.0,
	},
	{
		name: "proxy_mix",
		open: true, rate: 6000, limitUs: 5000,
		proxy: true,
	},
}

// limitNs is the latency limit in nanoseconds, 0 for none.
func (w *workload) limitNs() int64 { return int64(w.limitUs * 1e3) }

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// loop describes the arrival process for reports.
func (w *workload) loop(conns int, rate float64) string {
	unit := "req/s"
	if w.churn {
		unit = "conn/s"
	}
	if w.open && rate > 0 {
		return fmt.Sprintf("open loop, %.0f %s Poisson over %d connections", rate, unit, conns)
	}
	return fmt.Sprintf("closed loop, %d in flight on each of %d connections", max(w.depth, 1), conns)
}

// proxy_mix key space. Revalidated keys are cycled, not sampled, so
// that each key's revisit interval (proxyRevalKeys / (0.1 * rate) =
// 213 ms at 6000 req/s) stays above flashd's 100 ms coarse freshness
// clock and every such request really costs an origin 304.
const (
	proxyHitKeys   = 256
	proxyRevalKeys = 128
	proxyBodyBytes = 4 * kib
	proxyPrefix    = "/o/"
	proxyHitFrac   = 0.8
	proxyRevalFrac = 0.1
)

// fileMtime is stamped on every generated file, so validators (and
// with them the response header bytes) repeat from run to run.
var fileMtime = time.Unix(1_600_000_000, 0)

const hostHeader = "flashd.bench"

// request is one prebuilt HTTP request and the response it must draw.
type request struct {
	wire   []byte
	status int // 200 or 304
	obj    *object
}

// site is a workload's generated input for one seed: the objects by
// popularity rank and the requests over them.
type site struct {
	wl   *workload
	seed uint64
	objs []*object
	get  []*request // parallel to objs
	cond []*request // parallel to objs once buildCond ran; else nil
	zipf *zipfTable
	runs int // load runs so far; keeps never-seen proxy keys unique
}

// newSite plans the objects (names, sizes, popularity) without
// touching the disk; writeDocroot materialises a static site.
func newSite(wl *workload, seed uint64) *site {
	s := &site{wl: wl, seed: seed}
	if wl.proxy {
		body := make([]byte, proxyBodyBytes)
		for i := 0; i < proxyHitKeys+proxyRevalKeys; i++ {
			path := proxyPrefix + "h/" + strconv.Itoa(i)
			if i >= proxyHitKeys {
				path = proxyPrefix + "n/" + strconv.Itoa(i-proxyHitKeys)
			}
			s.objs = append(s.objs, proxyObject(seed, path, body))
		}
	} else {
		// Rank r always has size class r mod K, so the popularity-
		// weighted size mix — and with it bytes per request — is the
		// same for every seed; the seed picks which file holds each
		// rank, jitters its size by up to 63 bytes and fills it.
		k := len(wl.classes)
		rng := rand.New(rand.NewPCG(seed, 0xF11E5))
		perms := make([][]int, k)
		for c := range perms {
			perms[c] = rng.Perm((wl.files + k - 1 - c) / k)
		}
		for r := 0; r < wl.files; r++ {
			c := r % k
			idx := perms[c][r/k]*k + c
			size := wl.classes[c] - int64(mix64(seed^uint64(idx)*golden)%64)
			s.objs = append(s.objs, &object{
				urlPath: fmt.Sprintf("/f%06d.bin", idx),
				size:    size,
				key:     contentKey(seed, uint64(idx)),
			})
		}
		s.zipf = newZipf(wl.files, wl.alpha)
	}
	for _, o := range s.objs {
		s.get = append(s.get, newRequest(o, "", wl.churn))
	}
	return s
}

// proxyObject describes the body the origin serves at path. body is
// scratch of proxyBodyBytes.
func proxyObject(seed uint64, path string, body []byte) *object {
	h := fnv.New64a()
	h.Write([]byte(path))
	key := contentKey(seed, h.Sum64())
	fillContent(body, key, 0)
	return newObject(path, key, body)
}

// newRequest builds a GET for o; a non-empty ifNoneMatch makes it
// conditional (expecting 304), close asks for Connection: close.
func newRequest(o *object, ifNoneMatch string, close bool) *request {
	w := make([]byte, 0, 96)
	w = append(w, "GET "...)
	w = append(w, o.urlPath...)
	w = append(w, " HTTP/1.1\r\nHost: "+hostHeader+"\r\n"...)
	status := 200
	if ifNoneMatch != "" {
		w = append(w, "If-None-Match: "...)
		w = append(w, ifNoneMatch...)
		w = append(w, "\r\n"...)
		status = 304
	}
	if close {
		w = append(w, "Connection: close\r\n"...)
	}
	w = append(w, "\r\n"...)
	return &request{wire: w, status: status, obj: o}
}

// buildCond prebuilds the If-None-Match variants from the entity tags
// the touch pass learned.
func (s *site) buildCond() error {
	s.cond = make([]*request, len(s.objs))
	for i, o := range s.objs {
		if o.etag == "" {
			return fmt.Errorf("%s: no ETag learned for %s", s.wl.name, o.urlPath)
		}
		s.cond[i] = newRequest(o, o.etag, s.wl.churn)
	}
	return nil
}

// writeDocroot generates the static files under dir and completes the
// objects' expectations (edges, checksum).
func (s *site) writeDocroot(dir string) error {
	var buf []byte
	for _, o := range s.objs {
		if int64(cap(buf)) < o.size {
			buf = make([]byte, o.size)
		}
		body := buf[:o.size]
		fillContent(body, o.key, 0)
		*o = *newObject(o.urlPath, o.key, body)
		p := filepath.Join(dir, o.urlPath)
		if err := os.WriteFile(p, body, 0o644); err != nil {
			return err
		}
		if err := os.Chtimes(p, fileMtime, fileMtime); err != nil {
			return err
		}
	}
	// Write the files back now. Left dirty, the kernel's flusher threads
	// write them (296 MiB for cold_zipf) in the middle of the measured
	// window, on the CPUs under test.
	syscall.Sync()
	return nil
}

// totalBytes is the data-set size.
func (s *site) totalBytes() (n int64) {
	for _, o := range s.objs {
		n += o.size
	}
	return n
}

// picker draws one connection's request stream. Same (site, run, conn)
// gives the same stream.
type picker struct {
	s     *site
	rng   *rand.Rand
	run   int
	conn  int
	conns int
	seq   int // requests drawn so far
	cycle int // revalidated-key requests drawn so far
	touch bool
}

func (s *site) picker(run, conn, conns int) *picker {
	return &picker{
		s: s, run: run, conn: conn, conns: conns,
		rng: rand.New(rand.NewPCG(s.seed, uint64(run)<<32|uint64(conn))),
	}
}

// toucher visits every object once, in rank order, split across the
// connections; next returns nil when this connection's share is done.
func (s *site) toucher(conn, conns int) *picker {
	return &picker{s: s, conn: conn, conns: conns, touch: true}
}

func (p *picker) next() *request {
	s := p.s
	p.seq++
	if p.touch {
		i := p.conn + (p.seq-1)*p.conns
		if i >= len(s.objs) {
			return nil
		}
		return newRequest(s.objs[i], "", false)
	}
	if s.wl.proxy {
		switch u := p.rng.Float64(); {
		case u < proxyHitFrac:
			return s.get[p.rng.IntN(proxyHitKeys)]
		case u < proxyHitFrac+proxyRevalFrac:
			p.cycle++
			return s.get[proxyHitKeys+p.conn+p.conns*(p.cycle%(proxyRevalKeys/p.conns))]
		default:
			path := fmt.Sprintf("%sf/%d-%d-%d", proxyPrefix, p.run, p.conn, p.seq)
			return newRequest(proxyObject(s.seed, path, make([]byte, proxyBodyBytes)), "", false)
		}
	}
	r := s.zipf.sample(p.rng.Float64())
	if s.cond != nil && p.rng.Float64() < s.wl.condFrac {
		return s.cond[r]
	}
	return s.get[r]
}

// zipfTable samples ranks 0..n-1 with P(rank r) proportional to
// 1/(r+1)^alpha by inverting the tabulated CDF.
type zipfTable struct {
	cdf []float64
}

func newZipf(n int, alpha float64) *zipfTable {
	z := &zipfTable{cdf: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -alpha)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

// sample maps a uniform u in [0,1) to a rank.
func (z *zipfTable) sample(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}
