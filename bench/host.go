package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// pinning is how the host's CPUs are split: flashd on the first half
// (at least one), the driver — generator, origin, replay — on the rest.
// Measured on the 2-CPU development box, unpinned runs spread ±10% in
// throughput; pinned ones ±3%.
type pinning struct {
	nproc      int
	serverCPUs int
	serverIDs  []int  // flashd's CPUs
	serverList string // the same as a taskset -c list
	clientList string // and for the driver
	taskset    bool   // false: no taskset (or one CPU); flashd gets GOMAXPROCS instead
	conns      int    // client connections: min(nproc, 4), never more
}

// allowedCPUs parses Cpus_allowed_list of this process.
func allowedCPUs() []int {
	b, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			var cpus []int
			for _, part := range strings.Split(strings.TrimSpace(v), ",") {
				lo, hi, isRange := strings.Cut(part, "-")
				a, err := strconv.Atoi(lo)
				if err != nil {
					return nil
				}
				z := a
				if isRange {
					if z, err = strconv.Atoi(hi); err != nil {
						return nil
					}
				}
				for c := a; c <= z; c++ {
					cpus = append(cpus, c)
				}
			}
			return cpus
		}
	}
	return nil
}

func cpuList(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// planPinning sizes the run for this host.
func planPinning() pinning {
	cpus := allowedCPUs()
	n := runtime.NumCPU()
	p := pinning{nproc: n, serverCPUs: max(1, n/2), conns: min(n, 4)}
	if _, err := exec.LookPath("taskset"); err == nil && len(cpus) == n && n >= 2 {
		p.taskset = true
		p.serverIDs = cpus[:p.serverCPUs]
		p.serverList = cpuList(p.serverIDs)
		p.clientList = cpuList(cpus[p.serverCPUs:])
	}
	return p
}

// pinSelf moves every thread of this process onto the client CPUs.
func (p pinning) pinSelf() error {
	if !p.taskset {
		return nil
	}
	out, err := exec.Command("taskset", "-a", "-cp", p.clientList, strconv.Itoa(os.Getpid())).CombinedOutput()
	if err != nil {
		return fmt.Errorf("taskset -a -cp %s: %v: %s", p.clientList, err, out)
	}
	return nil
}

func (p pinning) String() string {
	if !p.taskset {
		return fmt.Sprintf("none (flashd GOMAXPROCS=%d)", p.serverCPUs)
	}
	return fmt.Sprintf("taskset: flashd on cpu %s (kept awake), driver on cpu %s (busy-polling)", p.serverList, p.clientList)
}

// fingerprint identifies the host and build a result came from.
type fingerprint struct {
	NProc       int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"git_commit"`
	Seed        uint64 `json:"seed"`
	Pinning     string `json:"pinning"`
	Connections int    `json:"connections"`
	ConnEngine  string `json:"conn_engine"`
	CacheEngine string `json:"cache_engine"`
}

// fingerprint describes this host and a run on it with the given seed.
func (e *env) fingerprint(seed uint64) fingerprint {
	fp := fingerprint{
		NProc: e.pin.nproc, GoVersion: runtime.Version(), Seed: seed,
		Pinning: e.pin.String(), Connections: e.pin.conns,
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown",
		ConnEngine: orDefault(e.connEngine), CacheEngine: orDefault(e.cacheEngine),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The commit is read from .git directly: a checkout without one
	// (the benchmark driver's) reports "unknown" instead of letting git
	// walk up into somebody else's repository.
	if b, err := os.ReadFile(filepath.Join(e.root, ".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(e.root, ".git", ref)); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		fp.Commit = head
	}
	return fp
}

func orDefault(engine string) string {
	if engine == "" {
		return "default"
	}
	return engine
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("host: %d cpu, %s, linux %s, %s, commit %s\nrun: seed %d, %d connections, pinning %s, conn engine %s, cache engine %s",
		fp.NProc, fp.CPUModel, fp.Kernel, fp.GoVersion, fp.Commit,
		fp.Seed, fp.Connections, fp.Pinning, fp.ConnEngine, fp.CacheEngine)
}
