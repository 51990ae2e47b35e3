package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- the instrument ---

func TestQuantilesKnownSamples(t *testing.T) {
	ramp := func(n int) []int64 { // 1..n, shuffled
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	cases := []struct {
		name string
		in   []int64
		q    float64
		want float64
	}{
		{"p50 of 1..1000", ramp(1000), 0.50, 500},
		{"p99 of 1..1000", ramp(1000), 0.99, 990},
		{"p99.9 of 1..1000", ramp(1000), 0.999, 999},
		{"max of 1..1000", ramp(1000), 1, 1000},
		{"p50 of 1..10", ramp(10), 0.50, 5},
		{"p99 of 1..10 is the largest", ramp(10), 0.99, 10},
		{"p50 of one sample", []int64{42}, 0.50, 42},
		{"p99 with a heavy tail", append(bytes64(98, 100), 5000, 9000), 0.99, 5000},
		// The old log2 histogram reported every one of these as 1048 or 2097.
		{"no bucket edges", []int64{1100, 1300, 1500, 1700, 1900}, 0.50, 1500},
	}
	for _, c := range cases {
		if got := quantileOf(c.in, c.q); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	if got := quantileOf(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of nothing: got %v, want NaN", got)
	}
}

// bytes64 is n copies of v.
func bytes64(n int, v int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestBlockQuantileIgnoresStalledBlocks(t *testing.T) {
	// Twenty blocks of 1000 requests, each with 2% of its requests at
	// 400 µs and the rest at 80 µs — except that a stall put 30 ms on a
	// tenth of the requests of eight of the blocks.
	var s samples
	at := int64(0)
	for b := 0; b < 20; b++ {
		for i := 0; i < 1000; i++ {
			ns := int64(80_000)
			switch {
			case b%5 < 2 && i%10 == 0:
				ns = 30_000_000
			case i%50 == 1:
				ns = 400_000
			}
			at++
			s.add(at, ns)
		}
	}
	if got, blocks := s.blockQuantile(0.99); got != 400_000 || blocks != 20 {
		t.Errorf("block p99 = %v over %d blocks, want 400000 over 20", got, blocks)
	}
	if got, _ := s.blockQuantile(0.50); got != 80_000 {
		t.Errorf("block p50 = %v, want 80000", got)
	}
	if got := s.quantile(0.99); got != 30_000_000 {
		t.Errorf("pooled p99 = %v, want the stall's 30000000", got)
	}
	// A slow-down of the server itself is in every block, and shows.
	var slow samples
	for i := int64(0); i < 20000; i++ {
		ns := int64(80_000)
		if i%50 == 1 {
			ns = 2_000_000
		}
		slow.add(i, ns)
	}
	if got, _ := slow.blockQuantile(0.99); got != 2_000_000 {
		t.Errorf("block p99 of a uniformly slow run = %v, want 2000000", got)
	}
}

// --- the inputs ---

func TestZipfMatchesAnalyticCDF(t *testing.T) {
	for _, alpha := range []float64{0, 0.6, 1.0} {
		const n = 512
		z := newZipf(n, alpha)
		norm := 0.0
		for r := 1; r <= n; r++ {
			norm += math.Pow(float64(r), -alpha)
		}
		cum, counts := 0.0, make([]int, n)
		rng := rand.New(rand.NewPCG(7, 7))
		const draws = 400_000
		for i := 0; i < draws; i++ {
			counts[z.sample(rng.Float64())]++
		}
		seen := 0
		for r := 0; r < n; r++ {
			cum += math.Pow(float64(r+1), -alpha) / norm
			seen += counts[r]
			if math.Abs(z.cdf[r]-cum) > 1e-9 {
				t.Fatalf("alpha %v: table cdf[%d] = %v, analytic %v", alpha, r, z.cdf[r], cum)
			}
			if emp := float64(seen) / draws; math.Abs(emp-cum) > 0.005 {
				t.Fatalf("alpha %v: empirical cdf[%d] = %v, analytic %v", alpha, r, emp, cum)
			}
		}
	}
}

func TestContentIsAFunctionOfOffset(t *testing.T) {
	key := contentKey(3, 99)
	whole := make([]byte, 1000)
	fillContent(whole, key, 0)
	for _, w := range [][2]int{{0, 1000}, {1, 17}, {7, 8}, {8, 8}, {13, 987}, {999, 1}} {
		part := make([]byte, w[1])
		fillContent(part, key, int64(w[0]))
		if !bytes.Equal(part, whole[w[0]:w[0]+w[1]]) {
			t.Errorf("bytes [%d,+%d) differ from the same window of the whole", w[0], w[1])
		}
	}
	other := make([]byte, 1000)
	fillContent(other, contentKey(4, 99), 0)
	if bytes.Equal(whole, other) {
		t.Error("two seeds gave the same content")
	}
}

// testWorkload is a small static mix for the generator tests.
func testWorkload(mod func(*workload)) *workload {
	wl := &workload{name: "test", files: 16, classes: []int64{512, 4 * kib, 40 * kib}, alpha: 1.0, condFrac: 0.25}
	if mod != nil {
		mod(wl)
	}
	return wl
}

// testSite generates wl's files and gives every object a validator, as
// a touch pass would.
func testSite(t *testing.T, wl *workload, seed uint64) *site {
	t.Helper()
	s := newSite(wl, seed)
	if err := s.writeDocroot(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, o := range s.objs {
		o.etag = fmt.Sprintf(`"%08x"`, o.crc)
	}
	if wl.condFrac > 0 {
		if err := s.buildCond(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func requestStream(s *site, run, n int) []byte {
	var out []byte
	for conn := 0; conn < 2; conn++ {
		pk := s.picker(run, conn, 2)
		for i := 0; i < n; i++ {
			out = append(out, pk.next().wire...)
		}
	}
	return out
}

func TestSameSeedSameRequestStream(t *testing.T) {
	wl := testWorkload(nil)
	a, b, c := testSite(t, wl, 5), testSite(t, wl, 5), testSite(t, wl, 6)
	sa, sb, sc := requestStream(a, 1, 2000), requestStream(b, 1, 2000), requestStream(c, 1, 2000)
	if !bytes.Equal(sa, sb) {
		t.Error("the same seed gave two different request streams")
	}
	if bytes.Equal(sa, sc) {
		t.Error("two seeds gave the same request stream")
	}
	if bytes.Equal(sa, requestStream(a, 2, 2000)) {
		t.Error("two runs of one site gave the same request stream")
	}
	if !bytes.Contains(sa, []byte("If-None-Match: ")) {
		t.Error("no conditional request in 4000 with condFrac 0.25")
	}
	// Arrival times are seeded too.
	times := func(s *site) (out []int64) {
		g := &gen{spec: loadSpec{site: s, rate: 1000}, t1: int64(time.Second)}
		next := g.arrivals()
		for due, ok := next(); ok; due, ok = next() {
			out = append(out, due)
		}
		return out
	}
	a.runs, b.runs = 1, 1
	ta, tb := times(a), times(b)
	if len(ta) < 900 || len(ta) > 1100 {
		t.Errorf("%d arrivals in a second at 1000/s", len(ta))
	}
	if fmt.Sprint(ta) != fmt.Sprint(tb) {
		t.Error("the same seed gave two different arrival schedules")
	}
}

// --- the generator, against a scripted server ---

// fakeServer answers the requests of one site the way flashd would, by
// script: delay(n) is how long the n-th request (counted across
// connections, from 0) waits before its response, and mangle(n, resp)
// may corrupt it.
type fakeServer struct {
	l      net.Listener
	site   *site
	byPath map[string]*object
	n      atomic.Int64
	delay  func(n int64) time.Duration
	mangle func(n int64, o *object, resp []byte) []byte
}

// startFake serves s by script; either function may be nil.
func startFake(t *testing.T, s *site, delay func(n int64) time.Duration, mangle func(n int64, o *object, resp []byte) []byte) *fakeServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{l: l, site: s, byPath: map[string]*object{}, delay: delay, mangle: mangle}
	for _, o := range s.objs {
		f.byPath[o.urlPath] = o
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go f.serve(c)
		}
	}()
	return f
}

func (f *fakeServer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		var path string
		cond, closing := false, false
		for first := true; ; first = false {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if first {
				path = strings.Fields(line)[1]
			}
			cond = cond || strings.HasPrefix(line, "If-None-Match:")
			closing = closing || strings.HasPrefix(line, "Connection: close")
			if line == "\r\n" {
				break
			}
		}
		n := f.n.Add(1) - 1
		o := f.byPath[path]
		var resp []byte
		switch {
		case o == nil:
			resp = []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
		case cond:
			resp = fmt.Appendf(nil, "HTTP/1.1 304 Not Modified\r\nETag: %s\r\n\r\n", o.etag)
		default:
			resp = fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nServer: fake\r\ncontent-length: %d\r\nETag: %s\r\n\r\n", o.size, o.etag)
			body := make([]byte, o.size)
			fillContent(body, o.key, 0)
			resp = append(resp, body...)
		}
		if f.mangle != nil && o != nil {
			resp = f.mangle(n, o, resp)
		}
		if f.delay != nil {
			time.Sleep(f.delay(n))
		}
		if _, err := c.Write(resp); err != nil || closing {
			return
		}
	}
}

func (f *fakeServer) spec(conns int, rate float64, window time.Duration) loadSpec {
	return loadSpec{
		addr: f.l.Addr().String(), site: f.site, conns: conns, rate: rate, depth: 1,
		lead: 50 * time.Millisecond, window: window, subwins: 4, yield: true,
	}
}

func ms(ns float64) float64 { return ns / 1e6 }

func TestKnownDelaysGiveKnownQuantiles(t *testing.T) {
	// 2% of the requests take 40 ms, 10% take 10 ms, the rest 2 ms.
	f := startFake(t, testSite(t, testWorkload(nil), 1), func(n int64) time.Duration {
		switch {
		case n%50 == 0:
			return 40 * time.Millisecond
		case n%10 == 1:
			return 10 * time.Millisecond
		}
		return 2 * time.Millisecond
	}, nil)
	res, err := runLoad(f.spec(1, 0, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 300 {
		t.Fatalf("attempted %d, failed %d %v", res.attempted, res.failed, res.fails)
	}
	// The server's sleeps run up to 1.1 ms long (Go's timer resolution).
	for _, c := range []struct{ q, want float64 }{{0.50, 2}, {0.85, 2}, {0.90, 10}, {0.97, 10}, {0.99, 40}} {
		if got := ms(res.lat.quantile(c.q)); got < c.want || got > c.want+2.5 {
			t.Errorf("p%v = %.2f ms, want %v..%v ms", 100*c.q, got, c.want, c.want+2.5)
		}
	}
	// Every request was in flight alone, so the rate is set by the delays.
	var n int64
	for _, w := range res.win {
		n += w.n
	}
	if mean := 2000 / float64(n); mean < 3.5 || mean > 6 {
		t.Errorf("%d completions in 2 s: %.2f ms each, want about 3.6+overhead", n, mean)
	}
}

func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	// One 50 ms stall. On a schedule of 1000 requests a second, ~50
	// requests come due while the server is stalled; timed from when they
	// were due, they waited 50 ms down to nothing. A generator that waits
	// for each response before sending the next would have sent one
	// request in that time and reported one slow sample in a thousand.
	f := startFake(t, testSite(t, testWorkload(func(w *workload) { w.classes = []int64{512} }), 1), func(n int64) time.Duration {
		if n == 400 {
			return 50 * time.Millisecond
		}
		return 0
	}, nil)
	res, err := runLoad(f.spec(1, 1000, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 900 {
		t.Fatalf("attempted %d, failed %d %v", res.attempted, res.failed, res.fails)
	}
	over := 0
	for _, ns := range res.lat.ns {
		if ns > int64(25*time.Millisecond) {
			over++
		}
	}
	if over < 15 || over > 40 {
		t.Errorf("%d requests waited over 25 ms for a 50 ms stall at 1000/s, want about 25", over)
	}
	if p99 := ms(res.lat.quantile(0.99)); p99 < 35 || p99 > 55 {
		t.Errorf("p99 = %.1f ms, want 35..55: the stall must show from the intended send times", p99)
	}
	if p50 := ms(res.lat.quantile(0.50)); p50 > 3 {
		t.Errorf("p50 = %.2f ms, want under 3", p50)
	}
	if lag := ms(res.lag.quantile(0.99)); lag > 2 {
		t.Errorf("the generator itself ran %.2f ms late at p99", lag)
	}
}

func TestEveryResponseIsValidated(t *testing.T) {
	wl := testWorkload(func(w *workload) { w.condFrac = 0 })
	var mu sync.Mutex
	var want [numFailKinds]int64
	f := startFake(t, testSite(t, wl, 1), nil, func(n int64, o *object, resp []byte) []byte {
		mu.Lock()
		defer mu.Unlock()
		head := bytes.Index(resp, crlfcrlf) + 4
		switch n % 40 {
		case 3: // the first body byte
			resp[head] ^= 0xFF
			want[failBody]++
		case 11: // the last body byte
			resp[len(resp)-1] ^= 0x01
			want[failBody]++
		case 17: // a status nobody asked for
			copy(resp[9:], "500")
			want[failStatus]++
		case 23: // one byte short, and saying so: well framed, wrong length
			want[failLength]++
			return append(fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", o.size-1), resp[head:len(resp)-1]...)
		}
		return resp
	})
	spec := f.spec(1, 0, 500*time.Millisecond)
	spec.depth, spec.lead = 4, 0
	res, err := runLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted < 200 {
		t.Fatalf("only %d requests in half a second", res.attempted)
	}
	// The server mangled a few responses more than the window recorded
	// (those in flight when it closed).
	mu.Lock()
	defer mu.Unlock()
	for k := failStatus; k <= failBody; k++ {
		if got := res.fails[k]; got == 0 || got > want[k] || got < want[k]-1 {
			t.Errorf("%s failures: recorded %d, the server caused %d", failNames[k], got, want[k])
		}
	}
	if res.fails[failRefused]+res.fails[failTimeout] != 0 {
		t.Errorf("failures by kind %v: the connection itself should have survived", res.fails)
	}
}

func TestMidBodyCorruptionIsCaughtByTheChecksum(t *testing.T) {
	wl := testWorkload(func(w *workload) { w.classes, w.condFrac = []int64{40 * kib}, 0 })
	f := startFake(t, testSite(t, wl, 1), nil, func(n int64, o *object, resp []byte) []byte {
		resp[bytes.Index(resp, crlfcrlf)+4+20_000] ^= 0x10
		return resp
	})
	res, err := runLoad(f.spec(1, 0, 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Only the edges of every body are compared; one response in
	// fullCheckEvery is checksummed whole.
	want := res.attempted / fullCheckEvery
	if res.attempted < 2*fullCheckEvery || res.fails[failBody] < want-1 || res.fails[failBody] > want+1 {
		t.Errorf("%d of %d responses failed the body check, want one in %d", res.fails[failBody], res.attempted, fullCheckEvery)
	}
}

func TestChurnOneConnectionPerRequest(t *testing.T) {
	wl := testWorkload(func(w *workload) { w.churn, w.condFrac = true, 0 })
	f := startFake(t, testSite(t, wl, 1), nil, nil)
	res, err := runLoad(f.spec(2, 500, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 400 || res.attempted > 600 {
		t.Fatalf("attempted %d, failed %d %v, want about 500 and none", res.attempted, res.failed, res.fails)
	}
	if got := f.n.Load(); got < res.attempted {
		t.Errorf("the server saw %d requests for %d attempted", got, res.attempted)
	}
	// A server that keeps talking after the response is caught.
	spec := f.spec(1, 200, 300*time.Millisecond)
	spec.addr = startFakeTrailing(t, f.site)
	res, err = runLoad(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.fails[failLength] != res.attempted {
		t.Errorf("trailing bytes after a Connection: close response: %d attempted, failures %v", res.attempted, res.fails)
	}
}

// startFakeTrailing serves every request correctly and then writes two
// more bytes before closing.
func startFakeTrailing(t *testing.T, s *site) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	inner := &fakeServer{site: s, byPath: map[string]*object{}}
	for _, o := range s.objs {
		inner.byPath[o.urlPath] = o
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				pr, pw := net.Pipe()
				go inner.serve(pr)
				go io.Copy(pw, c) // the request, forwarded
				io.Copy(c, pw)    // the response, until the inner server closes
				c.Write([]byte("!!"))
				c.Close()
				pw.Close()
			}()
		}
	}()
	return l.Addr().String()
}

// --- the whole thing ---

// TestSmokeAllWorkloads runs every workload for a second against a
// freshly built flashd, gated and traced, and insists on no failed
// request and on every workload invariant.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds flashd and runs each workload for a second")
	}
	bm, err := loadContract("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code has %d", len(bm.Workloads), len(workloads))
	}
	e := &env{root: bm.root, contract: bm, buildDir: dir, outDir: filepath.Join(dir, "out"), out: io.Discard}
	if err := e.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if bm.why(wl.name) == "" {
			t.Errorf("BENCHMARK.json does not name workload %s", wl.name)
		}
		for _, traced := range []bool{false, true} {
			var o *outcome
			var err error
			if traced {
				o, err = e.runTraced(wl, 1, 2*time.Second)
			} else {
				o, err = e.runGated(wl, 1, time.Second, 1)
			}
			if err != nil {
				t.Errorf("%s (traced %v): %v", wl.name, traced, err)
				continue
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d requests failed %s", wl.name, traced, o.failed, o.attempted, failSummary(o.fails))
			}
			for _, b := range o.broken {
				t.Errorf("%s (traced %v): invariant: %s", wl.name, traced, b)
			}
			// The run prints exactly the metrics the contract lists for
			// it, under the same units, each with a value.
			want := map[string]string{}
			for _, m := range bm.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bm.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range o.metrics {
				if unit, ok := want[m.name]; !ok || unit != m.unit {
					t.Errorf("%s (traced %v): prints %s [%s], BENCHMARK.json has [%s]", wl.name, traced, m.name, m.unit, unit)
				}
				delete(want, m.name)
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s (traced %v): %s has no value", wl.name, traced, m.name)
				}
			}
			for name := range want {
				t.Errorf("%s (traced %v): BENCHMARK.json lists %s, the run does not print it", wl.name, traced, name)
			}
			if !traced {
				continue
			}
			sum := o.get("flash.unaccounted_ns_per_req")
			for _, row := range o.budget {
				if row.inBudget {
					sum += row.nsCall * row.callsReq
				}
			}
			if serial := o.get("flash.serial_ns_per_req"); math.Abs(sum-serial) > 1e-6*serial {
				t.Errorf("%s: budget rows + unaccounted = %.1f, serial = %.1f", wl.name, sum, serial)
			}
			if _, err := os.Stat(o.spanFile); err != nil {
				t.Errorf("%s: span file: %v", wl.name, err)
			}
		}
	}
}
