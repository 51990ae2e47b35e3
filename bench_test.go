package repro

// One benchmark per evaluation figure of the paper (6-12), each running
// the corresponding experiment in quick mode and reporting its headline
// metric, plus ablation benchmarks for the simulator's design decisions (disk
// scheduling, helper concurrency, header alignment, per-process cache
// splitting).
//
// Full-fidelity figure data comes from `go run ./cmd/flashbench`; these
// benches keep the whole suite runnable in minutes while exercising the
// identical code paths.

import (
	"math"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/simos"
	"repro/internal/workload"
)

// reportFigure runs one experiment per iteration and reports a metric
// from it.
func reportFigure(b *testing.B, id string, series string, x float64, unit string, tableIdx int) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tables := e.Run(experiments.Quality{Quick: true})
		tb := tables[tableIdx]
		s := tb.Get(series)
		if s == nil {
			b.Fatalf("%s: series %q missing", id, series)
		}
		last = s.Y(x)
		if math.IsNaN(last) {
			b.Fatalf("%s/%s: no point at %v", id, series, x)
		}
	}
	b.ReportMetric(last, unit)
}

// BenchmarkFig6SolarisBandwidth reports Flash's 200 KB cached-file
// bandwidth on the Solaris profile (Figure 6, left panel).
func BenchmarkFig6SolarisBandwidth(b *testing.B) {
	reportFigure(b, "fig6", "Flash", 200, "Mb/s", 0)
}

// BenchmarkFig6SolarisConnRate reports Flash's small-file connection
// rate on Solaris (Figure 6, right panel).
func BenchmarkFig6SolarisConnRate(b *testing.B) {
	reportFigure(b, "fig6", "Flash", 0.5, "req/s", 1)
}

// BenchmarkFig7FreeBSDBandwidth reports Flash's 200 KB bandwidth on the
// FreeBSD profile (Figure 7, left panel).
func BenchmarkFig7FreeBSDBandwidth(b *testing.B) {
	reportFigure(b, "fig7", "Flash", 200, "Mb/s", 0)
}

// BenchmarkFig7FreeBSDConnRate reports Flash's small-file connection
// rate on FreeBSD (Figure 7, right panel).
func BenchmarkFig7FreeBSDConnRate(b *testing.B) {
	reportFigure(b, "fig7", "Flash", 0.5, "req/s", 1)
}

// BenchmarkFig8CSTrace reports Flash's bandwidth on the CS trace
// (Figure 8; Flash is server index 4).
func BenchmarkFig8CSTrace(b *testing.B) {
	reportFigure(b, "fig8", "CS trace", 4, "Mb/s", 0)
}

// BenchmarkFig8OwlnetTrace reports Flash's bandwidth on the Owlnet
// trace (Figure 8).
func BenchmarkFig8OwlnetTrace(b *testing.B) {
	reportFigure(b, "fig8", "Owlnet trace", 4, "Mb/s", 0)
}

// BenchmarkFig9DiskBound reports Flash's disk-bound bandwidth at the
// 150 MB dataset point on FreeBSD (Figure 9).
func BenchmarkFig9DiskBound(b *testing.B) {
	reportFigure(b, "fig9", "Flash", 150, "Mb/s", 0)
}

// BenchmarkFig10DiskBound reports the same point on Solaris (Figure 10).
func BenchmarkFig10DiskBound(b *testing.B) {
	reportFigure(b, "fig10", "Flash", 150, "Mb/s", 0)
}

// BenchmarkFig11NoCaching reports the no-caching configuration's
// small-file rate (Figure 11's bottom curve).
func BenchmarkFig11NoCaching(b *testing.B) {
	reportFigure(b, "fig11", "no caching", 0.5, "req/s", 0)
}

// BenchmarkFig11FullFlash reports full Flash on the same workload
// (Figure 11's top curve).
func BenchmarkFig11FullFlash(b *testing.B) {
	reportFigure(b, "fig11", "all (Flash)", 0.5, "req/s", 0)
}

// BenchmarkFig12Concurrency reports Flash's bandwidth at 500 persistent
// connections (Figure 12).
func BenchmarkFig12Concurrency(b *testing.B) {
	reportFigure(b, "fig12", "Flash", 500, "Mb/s", 0)
}

// --- Ablations ---

// diskBoundTrace is shared by the ablation benches: an ECE trace
// truncated past the cache size.
func diskBoundTrace() *workload.Trace {
	return workload.Generate(workload.RiceECE()).Truncate(130 << 20)
}

func runOnce(prof simos.Profile, o arch.Options, tr *workload.Trace, ccfg client.Config) metrics.Summary {
	return experiments.Run(experiments.RunConfig{
		Profile: prof,
		Server:  o,
		Trace:   tr,
		Clients: ccfg,
		Warmup:  2 * time.Second,
		Window:  6 * time.Second,
		Prewarm: true,
	}).Summary
}

// BenchmarkAblationDiskScheduling compares the elevator (tagged
// queueing) against FIFO service for the AMPED server on a disk-bound
// workload — the §4.1 "disk utilization" argument.
func BenchmarkAblationDiskScheduling(b *testing.B) {
	tr := diskBoundTrace()
	var elev, fifo float64
	for i := 0; i < b.N; i++ {
		prof := simos.FreeBSD()
		elev = runOnce(prof, arch.FlashOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
		prof.Disk.Policy = 0 // simdisk.FIFO
		fifo = runOnce(prof, arch.FlashOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(elev, "elevator-Mb/s")
	b.ReportMetric(fifo, "fifo-Mb/s")
}

// BenchmarkAblationHelperCount compares AMPED with 1 vs 32 helpers on a
// disk-bound workload: one helper serializes disk reads (SPED-like);
// "Flash only needs enough helpers to keep the disk busy."
func BenchmarkAblationHelperCount(b *testing.B) {
	tr := diskBoundTrace()
	var one, many float64
	for i := 0; i < b.N; i++ {
		o := arch.FlashOptions()
		o.MaxHelpers = 1
		one = runOnce(simos.FreeBSD(), o, tr, client.Config{NumClients: 64}).MbitPerSec()
		o.MaxHelpers = 32
		many = runOnce(simos.FreeBSD(), o, tr, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(one, "helpers1-Mb/s")
	b.ReportMetric(many, "helpers32-Mb/s")
}

// BenchmarkAblationHeaderAlignment compares aligned and misaligned
// response headers on a large cached file (§5.5).
func BenchmarkAblationHeaderAlignment(b *testing.B) {
	tr := workload.SingleFile(128 << 10)
	var aligned, misaligned float64
	for i := 0; i < b.N; i++ {
		o := arch.SPEDOptions()
		aligned = runOnce(simos.FreeBSD(), o, tr, client.Config{NumClients: 64}).MbitPerSec()
		o.AlignedHeaders = false
		misaligned = runOnce(simos.FreeBSD(), o, tr, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(aligned, "aligned-Mb/s")
	b.ReportMetric(misaligned, "misaligned-Mb/s")
}

// BenchmarkAblationSharedVsSplitCaches compares MT's shared caches
// against MP's per-process caches on a cached trace — §4.2
// "Application-level Caching".
func BenchmarkAblationSharedVsSplitCaches(b *testing.B) {
	tr := workload.Generate(workload.Owlnet())
	var shared, split float64
	for i := 0; i < b.N; i++ {
		shared = runOnce(simos.Solaris(), arch.MTOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
		split = runOnce(simos.Solaris(), arch.MPOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(shared, "sharedMT-Mb/s")
	b.ReportMetric(split, "splitMP-Mb/s")
}

// BenchmarkAblationLockTuning compares tuned MT against the coarse-lock
// variant of Figure 10's note ("without this effort the disk-bound
// results otherwise resembled Flash-SPED").
func BenchmarkAblationLockTuning(b *testing.B) {
	tr := diskBoundTrace()
	var tuned, untuned float64
	for i := 0; i < b.N; i++ {
		tuned = runOnce(simos.Solaris(), arch.MTOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
		untuned = runOnce(simos.Solaris(), arch.MTUntunedOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(tuned, "tunedMT-Mb/s")
	b.ReportMetric(untuned, "untunedMT-Mb/s")
}

// BenchmarkAblationResidencyPolicy compares mincore-based residency
// testing against the §5.7 feedback heuristic, cached and disk-bound.
func BenchmarkAblationResidencyPolicy(b *testing.B) {
	cached := workload.SingleFile(2 << 10)
	disk := diskBoundTrace()
	var mincoreCached, heurCached, mincoreDisk, heurDisk float64
	for i := 0; i < b.N; i++ {
		mincoreCached = runOnce(simos.FreeBSD(), arch.FlashOptions(), cached, client.Config{NumClients: 64}).RequestsPerSec()
		heurCached = runOnce(simos.FreeBSD(), arch.FlashHeuristicOptions(), cached, client.Config{NumClients: 64}).RequestsPerSec()
		mincoreDisk = runOnce(simos.FreeBSD(), arch.FlashOptions(), disk, client.Config{NumClients: 64}).MbitPerSec()
		heurDisk = runOnce(simos.FreeBSD(), arch.FlashHeuristicOptions(), disk, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(mincoreCached, "mincore-req/s")
	b.ReportMetric(heurCached, "heuristic-req/s")
	b.ReportMetric(mincoreDisk, "mincore-Mb/s")
	b.ReportMetric(heurDisk, "heuristic-Mb/s")
}

// BenchmarkAblationMultipleDisks tests §4.1's disk-utilization claim:
// a second spindle helps AMPED (helpers queue on both) but not SPED
// (one outstanding request total).
func BenchmarkAblationMultipleDisks(b *testing.B) {
	tr := diskBoundTrace()
	var flash1, flash2, sped1, sped2 float64
	for i := 0; i < b.N; i++ {
		p1, p2 := simos.FreeBSD(), simos.FreeBSD()
		p2.NumDisks = 2
		flash1 = runOnce(p1, arch.FlashOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
		flash2 = runOnce(p2, arch.FlashOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
		sped1 = runOnce(p1, arch.SPEDOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
		sped2 = runOnce(p2, arch.SPEDOptions(), tr, client.Config{NumClients: 64}).MbitPerSec()
	}
	b.ReportMetric(flash1, "flash1disk-Mb/s")
	b.ReportMetric(flash2, "flash2disk-Mb/s")
	b.ReportMetric(sped1, "sped1disk-Mb/s")
	b.ReportMetric(sped2, "sped2disk-Mb/s")
}

// BenchmarkSimulatorEventRate measures raw simulator throughput
// (virtual events per wall second) on a cached workload.
func BenchmarkSimulatorEventRate(b *testing.B) {
	tr := workload.SingleFile(8 << 10)
	for i := 0; i < b.N; i++ {
		runOnce(simos.FreeBSD(), arch.FlashOptions(), tr, client.Config{NumClients: 64})
	}
}
