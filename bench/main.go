// Command bench is flashd's one benchmark: six named workloads, eight
// end-to-end metrics with regression bounds, and a per-layer budget.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory explains every name.
//
//	go run . [-seed N] [-seconds S]             every workload, gated metrics
//	go run . -trace                             every workload, traced run
//	go run . -aa                                the suite twice, differences against the bounds
//	go run . -workload NAME -trace 0|1          one workload; last line is one JSON object
//
// Run it from this directory (it is its own module), or through run.sh
// from anywhere.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// boolArgs lets "-trace" stand alone although the flag takes a value
// (the benchmark contract passes "--trace 0|1").
func boolArgs(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				out = append(out, "1")
			}
		}
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run only this workload and end with one JSON result line")
		seed     = fs.Uint64("seed", 1, "seeds file contents, sizes, popularity and arrival times")
		seconds  = fs.Float64("seconds", 10, "measured window per workload")
		trace    = fs.Int("trace", 0, "1: the traced run (per-layer metrics, budget table, span files)")
		aa       = fs.Bool("aa", false, "run the suite twice on the same binary and compare against the bounds")
		repo     = fs.String("repo", "", "repository root (default: found from the working directory)")
		connEng  = fs.String("conn-engine", "", "ad-hoc runs only: passed through to flashd")
		cacheEng = fs.String("cache-engine", "", "ad-hoc runs only: passed through to flashd")
		rate     = fs.Float64("rate", 0, "ad-hoc runs only: open-loop rate override; negative runs an open-loop workload closed-loop to find its capacity")
	)
	if err := fs.Parse(boolArgs(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %v: want at least 1", *seconds)
	}
	suite := workloads
	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		suite = []*workload{wl}
	}
	bm, err := loadContract(*repo)
	if err != nil {
		return err
	}

	e := &env{root: bm.root, contract: bm, out: os.Stdout, connEngine: *connEng, cacheEngine: *cacheEng, rate: *rate}
	e.buildDir = filepath.Join(e.root, ".bench_build")
	e.outDir = filepath.Join(e.root, "bench", "out")
	if err := e.prepare(); err != nil {
		return err
	}
	stopOnSignal()

	window := time.Duration(*seconds * float64(time.Second))
	one := func(wl *workload) (*outcome, error) {
		var o *outcome
		var err error
		if *trace == 1 {
			o, err = e.runTraced(wl, *seed, window)
		} else {
			o, err = e.runGated(wl, *seed, window, setupRepeats)
		}
		if err != nil {
			return nil, err
		}
		e.report(o)
		if len(o.broken) > 0 {
			return nil, brokenError(wl, o.broken)
		}
		return o, nil
	}

	fmt.Fprintf(e.out, "%s\nflashd built in %.2f s\n", e.fingerprint(*seed), e.buildS)
	if *aa {
		return e.runAA(suite, bm, one)
	}
	var last *outcome
	for _, wl := range suite {
		if last, err = one(wl); err != nil {
			return err
		}
	}
	if *name != "" {
		return printResult(last)
	}
	return nil
}

// prepare builds flashd into the build directory and sizes this process
// for the host.
func (e *env) prepare() error {
	if err := os.MkdirAll(filepath.Join(e.buildDir, "work"), 0o755); err != nil {
		return err
	}
	bin, took, err := buildFlashd(e.root, e.buildDir)
	if err != nil {
		return err
	}
	e.flashd, e.buildS = bin, took.Seconds()
	e.pin = planPinning()
	// The poll loop and the threads that keep flashd's CPUs awake never
	// give their P back; the origin, the status scrapes and the runtime
	// need some too.
	runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), e.pin.serverCPUs+3))
	return e.pin.pinSelf()
}

// stopOnSignal makes an interrupted run take its flashd with it.
func stopOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killServers()
		os.Exit(1)
	}()
}

// setupRepeats is how often a gated run sets the workload up; setup_s is
// the median.
const setupRepeats = 3

// contract is BENCHMARK.json as far as the driver itself reads it: why
// each workload exists, the bounds that -aa compares against, and the
// metric names the tests hold the code to.
type contract struct {
	root      string
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func (c *contract) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// loadContract finds the repository (the directory holding
// BENCHMARK.json and cmd/flashd) and reads the bounds.
func loadContract(repo string) (*contract, error) {
	candidates := []string{repo}
	if repo == "" {
		candidates = []string{".", ".."}
	}
	for _, dir := range candidates {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "flashd", "main.go")); err != nil {
			return nil, fmt.Errorf("%s has BENCHMARK.json but no cmd/flashd to build: %w", dir, err)
		}
		c := &contract{}
		if err := json.Unmarshal(b, c); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if c.root, err = filepath.Abs(dir); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json in %s: run from the repository root or from bench/", strings.Join(candidates, " or "))
}

// report prints one outcome for people.
func (e *env) report(o *outcome) {
	wl := o.wl
	rate := wl.rate
	if e.rate != 0 {
		rate = max(e.rate, 0)
	}
	fmt.Fprintf(e.out, "\n== %s: %s ==\n   %s\n", wl.name, wl.loop(e.pin.conns, rate), e.contract.why(wl.name))
	for _, m := range o.metrics {
		fmt.Fprintf(e.out, "  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(e.out, "  attempted %d, failed %d %s, latency samples %d\n", o.attempted, o.failed, failSummary(o.fails), o.samples)
	for _, n := range o.notes {
		fmt.Fprintf(e.out, "  %s\n", n)
	}
	if o.budget != nil {
		fmt.Fprintf(e.out, "  budget (ns per request = calls per request x ns per call):\n")
		sum := 0.0
		for _, r := range o.budget {
			if !r.inBudget {
				fmt.Fprintf(e.out, "    %-28s %8.3f x %10.1f   (inside cache.fill_ns)\n", r.name, r.callsReq, r.nsCall)
				continue
			}
			sum += r.callsReq * r.nsCall
			fmt.Fprintf(e.out, "    %-28s %8.3f x %10.1f = %10.1f\n", r.name, r.callsReq, r.nsCall, r.callsReq*r.nsCall)
		}
		fmt.Fprintf(e.out, "    %-50s = %10.1f\n", "layer rows", sum)
		fmt.Fprintf(e.out, "    %-50s = %10.1f\n", "flash.unaccounted_ns_per_req (syscalls, loop handoffs, kernel TCP)", o.get("flash.unaccounted_ns_per_req"))
		fmt.Fprintf(e.out, "    %-50s = %10.1f\n", "flash.serial_ns_per_req", o.get("flash.serial_ns_per_req"))
		fmt.Fprintf(e.out, "  spans: %s\n", o.spanFile)
	}
	for _, u := range o.unstable {
		fmt.Fprintf(e.out, "  unstable: %s\n", u)
	}
	for _, b := range o.broken {
		fmt.Fprintf(e.out, "  BROKEN: %s\n", b)
	}
}

// printResult writes the contract's result object as the last line.
func printResult(o *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s has no value", o.wl.name, m.name)
		}
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAA runs the suite twice on the same binary and prints, per metric
// and workload, how far the second run is from the first against the
// metric's bound.
func (e *env) runAA(suite []*workload, bm *contract, one func(*workload) (*outcome, error)) error {
	var runs [2][]*outcome
	for i := range runs {
		fmt.Fprintf(e.out, "\n#### A/A run %d of 2\n", i+1)
		for _, wl := range suite {
			o, err := one(wl)
			if err != nil {
				return err
			}
			runs[i] = append(runs[i], o)
		}
	}
	fmt.Fprintf(e.out, "\n#### A/A: second run against the first (positive = worse)\n")
	fmt.Fprintf(e.out, "%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	over := 0
	for i, a := range runs[0] {
		b := runs[1][i]
		for _, c := range bm.EndToEnd {
			x, y := a.get(c.Name), b.get(c.Name)
			if math.IsNaN(x) || math.IsNaN(y) {
				continue // a traced A/A has no end-to-end metrics
			}
			worse := (y - x) / x
			if c.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > c.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Fprintf(e.out, "%-16s %-24s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", a.wl.name, c.Name, x, y, 100*worse, 100*c.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metric x workload pairs differ by more than their bound", over)
	}
	return nil
}
