package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildFlashd compiles cmd/flashd from the repo at root into dir and
// returns the binary's path and how long the build took.
func buildFlashd(root, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "flashd")
	t := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/flashd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/flashd in %s: %v\n%s", root, err, out)
	}
	return bin, time.Since(t), nil
}

// server is one running flashd process. It gets only -root, -addr and
// -status (plus the upstream pair for the proxy workload and whatever
// ad-hoc engine flags the operator passed), so what is measured is the
// default binary.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	status *http.Client // one keep-alive connection, reused by every scrape
}

// running is every flashd this process has started and not yet reaped,
// for stopOnSignal.
var running struct {
	sync.Mutex
	procs map[*os.Process]bool
}

func track(p *os.Process, on bool) {
	running.Lock()
	defer running.Unlock()
	if running.procs == nil {
		running.procs = map[*os.Process]bool{}
	}
	if on {
		running.procs[p] = true
	} else {
		delete(running.procs, p)
	}
}

func killServers() {
	running.Lock()
	defer running.Unlock()
	for p := range running.procs {
		p.Kill()
	}
}

// freeAddr picks a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches flashd on docroot, pinned as pin describes, and
// waits until it accepts connections.
func startServer(bin, docroot, logPath string, pin pinning, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-root", docroot, "-addr", addr, "-status"}, extra...)
	name := bin
	if pin.taskset {
		args = append([]string{"-c", pin.serverList, bin}, args...)
		name = "taskset"
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if !pin.taskset {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pin.serverCPUs))
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	track(cmd.Process, true)
	s := &server{cmd: cmd, addr: addr, log: logf, status: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   5 * time.Second,
	}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("flashd did not come up on %s: %v (log: %s)", addr, err, logPath)
		}
	}
}

// stop ends the process and waits for it.
func (s *server) stop() {
	s.status.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	track(s.cmd.Process, false)
	s.log.Close()
}

// cacheCounters mirrors internal/cache's Stats and MapCacheStats as
// /server-status?format=json renders them.
type cacheCounters struct {
	Hits, Misses, Evictions, Inserts uint64
	BytesMapped, BytesUnmapped       int64
}

func (c cacheCounters) sub(o cacheCounters) cacheCounters { return c.combine(o, -1) }

// combine returns c + k*o per field, for k of 1 or -1 (unsigned
// arithmetic wraps, so multiplying by uint64(-1) subtracts).
func (c cacheCounters) combine(o cacheCounters, k int64) cacheCounters {
	u := uint64(k)
	return cacheCounters{
		c.Hits + u*o.Hits, c.Misses + u*o.Misses, c.Evictions + u*o.Evictions, c.Inserts + u*o.Inserts,
		c.BytesMapped + k*o.BytesMapped, c.BytesUnmapped + k*o.BytesUnmapped,
	}
}

// hitRatio reads 1 when nothing was looked up: no lookup missed.
func (c cacheCounters) hitRatio() float64 { return ratio(c.Hits, c.Hits+c.Misses, 1) }

// serverCounters is the subset of flash.Stats the benchmark reads.
type serverCounters struct {
	Accepted, Responses, Errors, HelperJobs         uint64
	BytesSent, BytesSendfile                        int64
	PathCache, HeaderCache, MapCache, SharedChunks  cacheCounters
	Fills                                           struct{ Started, Joined, Completed, Failed uint64 }
	ProxyRequests, ProxyHits, ProxyRevalidated      uint64
	ProxyFills, ProxyPassThrough, ProxyErrors       uint64
	ConnsRejected, ShedRequests                     uint64
	originReqs, originFails, dials, reuses, retries int64 // summed over proxy[].pool.backends
}

type statusDoc struct {
	Stats  serverCounters `json:"stats"`
	Shards []struct{}     `json:"shards"`
	Proxy  []struct {
		Pool struct {
			Backends []struct {
				Requests, Failures, Dials, Reuses, Retries int64
			} `json:"backends"`
		} `json:"pool"`
	} `json:"proxy"`
}

// scrape reads /server-status?format=json.
func (s *server) scrape() (serverCounters, *statusDoc, error) {
	resp, err := s.status.Get("http://" + s.addr + "/server-status?format=json")
	if err != nil {
		return serverCounters{}, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serverCounters{}, nil, err
	}
	var doc statusDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return serverCounters{}, nil, fmt.Errorf("server-status: %v", err)
	}
	c := doc.Stats
	for _, p := range doc.Proxy {
		for _, b := range p.Pool.Backends {
			c.originReqs += b.Requests
			c.originFails += b.Failures
			c.dials += b.Dials
			c.reuses += b.Reuses
			c.retries += b.Retries
		}
	}
	return c, &doc, nil
}

// procSample is what /proc says about the flashd process.
type procSample struct {
	user, sys time.Duration
	ctxsw     int64   // voluntary + involuntary, summed over threads
	hwmMiB    float64 // VmHWM
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat,
// 100 on every Linux the Go toolchain supports.
const clockTick = time.Second / 100

func (s *server) proc() (procSample, error) {
	var ps procSample
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("/proc/%s/stat: short line", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	ps.user, ps.sys = time.Duration(ut)*clockTick, time.Duration(st)*clockTick

	tasks, _ := filepath.Glob("/proc/" + pid + "/task/*/status")
	for _, t := range append(tasks, "/proc/"+pid+"/status") {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that just exited
		}
		leader := !strings.Contains(t, "/task/")
		for _, line := range strings.Split(string(b), "\n") {
			k, v, _ := strings.Cut(line, ":")
			switch {
			case !leader && strings.HasSuffix(k, "voluntary_ctxt_switches"):
				n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				ps.ctxsw += n
			case leader && k == "VmHWM":
				kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				ps.hwmMiB = kb / 1024
			}
		}
	}
	return ps, nil
}

// ratio is num/den, or whenZero when den is 0.
func ratio[T uint64 | int64](num, den T, whenZero float64) float64 {
	if den == 0 {
		return whenZero
	}
	return float64(num) / float64(den)
}
