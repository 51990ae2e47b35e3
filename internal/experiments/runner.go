// Package experiments defines one reproducible experiment per figure of
// the Flash paper's evaluation (Figures 6-12) and the machinery to run
// them: machine construction, dataset loading, cache prewarming, and
// warmup/measurement windows.
//
// Each experiment returns metrics.Tables whose series mirror the
// figure's curves; cmd/flashbench renders them.
package experiments

import (
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simos"
	"repro/internal/workload"
)

// Quality selects the fidelity of a run.
type Quality struct {
	// Quick trims sweep points and shortens windows — used by the `go
	// test -bench` harness so the full suite stays fast. The full
	// fidelity is the flashbench default.
	Quick bool
}

// points picks the full or quick variant of a sweep.
func (q Quality) points(full, quick []float64) []float64 {
	if q.Quick {
		return quick
	}
	return full
}

// window scales measurement windows down in quick mode.
func (q Quality) window(d time.Duration) time.Duration {
	if q.Quick {
		return d / 4
	}
	return d
}

// RunConfig describes one measurement.
type RunConfig struct {
	Profile simos.Profile
	Server  arch.Options
	Trace   *workload.Trace
	Clients client.Config
	Warmup  time.Duration
	Window  time.Duration
	// Prewarm loads popular files into the buffer cache before starting
	// (steady-state emulation for trace workloads).
	Prewarm bool
	Seed    uint64
}

// Result is one measurement outcome.
type Result struct {
	Summary metrics.Summary
	Server  arch.Stats
	Machine *simos.Machine
}

// Run executes one configuration and returns its measurement window.
func Run(rc RunConfig) Result {
	eng := sim.NewEngine()
	seed := rc.Seed
	if seed == 0 {
		seed = 1999
	}
	m := simos.NewMachine(eng, rc.Profile, seed)
	for path, size := range rc.Trace.Files {
		m.FS.AddFile(path, size)
	}
	srv := arch.New(m, rc.Server)
	srv.Start()
	if rc.Prewarm {
		PrewarmCache(m, rc.Trace)
	}
	d := client.New(eng, m.Net, srv.Listener(), rc.Trace, rc.Clients)
	d.Start()
	eng.RunFor(rc.Warmup)
	before := d.Summary()
	eng.RunFor(rc.Window)
	return Result{
		Summary: d.Summary().Sub(before),
		Server:  srv.Stats(),
		Machine: m,
	}
}

// PrewarmCache loads files into the buffer cache in descending request
// popularity until ~90% of capacity is used — the steady state a long
// trace replay converges to, reached without simulating the cold ramp.
func PrewarmCache(m *simos.Machine, tr *workload.Trace) {
	counts := make(map[string]int, len(tr.Files))
	for _, e := range tr.Entries {
		counts[e.Path]++
	}
	paths := make([]string, 0, len(counts))
	for p := range counts {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if counts[paths[i]] != counts[paths[j]] {
			return counts[paths[i]] > counts[paths[j]]
		}
		return paths[i] < paths[j]
	})
	budget := m.BC.Capacity() * 9 / 10
	for _, p := range paths {
		f := m.FS.Lookup(p)
		if f == nil {
			continue
		}
		if m.BC.Used()+f.Size > budget {
			break
		}
		m.FS.WarmFile(f)
	}
}

// Experiment ties a paper figure to the code that regenerates it.
type Experiment struct {
	ID    string
	Title string
	// Expect summarizes the shape the paper reports, for eyeball
	// checks.
	Expect string
	Run    func(q Quality) []*metrics.Table
}

// All lists every reproduced figure in paper order.
var All = []Experiment{
	{
		ID:    "fig6",
		Title: "Solaris single file test (bandwidth vs file size; connection rate vs small file size)",
		Expect: "Architecture has little impact on a trivial cached workload; Flash/SPED/Zeus cluster " +
			"together, MT and MP slightly behind, Apache well below all; SPED slightly above Flash " +
			"(mincore overhead); ~1200 conn/s and ~120 Mb/s peaks.",
		Run: Fig6,
	},
	{
		ID:    "fig7",
		Title: "FreeBSD single file test (bandwidth vs file size; connection rate vs small file size)",
		Expect: "Same ordering as Fig 6 at roughly 2x the absolute performance (~3500 conn/s, ~250 Mb/s); " +
			"no MT (FreeBSD 2.2.6 lacks kernel threads); Zeus dips above ~100 KB from writev misalignment.",
		Run: Fig7,
	},
	{
		ID:    "fig8",
		Title: "Performance on Rice Server Traces (Solaris): CS and Owlnet",
		Expect: "Flash highest on both traces; Apache lowest. SPED relatively better on the cache-friendly " +
			"Owlnet trace; MP relatively better on the disk-intensive CS trace; comparable absolute bandwidth.",
		Run: Fig8,
	},
	{
		ID:    "fig9",
		Title: "FreeBSD real workload: bandwidth vs dataset size (ECE logs, truncated)",
		Expect: "All servers decline as the dataset grows with a knee when the working set exceeds the " +
			"cache (~100 MB); Flash tracks SPED before the knee and leads beyond it; SPED (and Zeus) " +
			"collapse beyond the knee with SPED lowest; Zeus's knee arrives later (small-file priority).",
		Run: Fig9,
	},
	{
		ID:    "fig10",
		Title: "Solaris real workload: bandwidth vs dataset size (ECE logs, truncated)",
		Expect: "Same shape as Fig 9 at lower absolute bandwidth (up to ~50% below FreeBSD); " +
			"MT comparable to Flash on both cached and disk-bound regions.",
		Run: Fig10,
	},
	{
		ID:    "fig11",
		Title: "Flash performance breakdown: connection rate vs file size for all caching combinations",
		Expect: "Every optimization contributes; pathname translation caching largest; with no caching " +
			"small-file performance drops to roughly half of full Flash.",
		Run: Fig11,
	},
	{
		ID:    "fig12",
		Title: "Adding clients (WAN concurrency, Solaris, ECE 90 MB, persistent connections)",
		Expect: "Initial rise as select amortizes over more ready events; SPED and AMPED flatten beyond " +
			"~200 clients; MT declines gradually (per-thread overhead); MP declines significantly " +
			"(per-process memory and context switching).",
		Run: Fig12,
	},
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}
