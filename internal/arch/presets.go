package arch

import "time"

// Paper §6 configuration: "the Flash-MP and Apache servers use 32 server
// processes and Flash-MT uses 32 threads. Both Flash-MT and Flash use a
// memory-mapped file cache and a pathname cache; each Flash-MP process
// has [smaller] limits since the caches are replicated in each process."
// The scanned copy lost the exact numerals; the values below are a
// reconstruction, not the paper's figures.
const (
	defaultProcs = 32

	sharedPathEntries = 6000
	sharedMapBytes    = 128 << 20

	perProcPathEntries = 200
	perProcMapBytes    = 2 << 20
)

// FlashOptions returns the standard AMPED Flash configuration.
func FlashOptions() Options {
	return Options{
		Kind:               AMPED,
		Name:               "Flash",
		NumProcs:           1,
		MaxHelpers:         32,
		PathCacheEntries:   sharedPathEntries,
		HeaderCacheEntries: sharedPathEntries,
		MapBytes:           sharedMapBytes,
		UsePathCache:       true,
		UseRespCache:       true,
		UseMapCache:        true,
		UseMmapIO:          true,
		AlignedHeaders:     true,
	}
}

// FlashSMPOptions returns sharded AMPED: n independent event loops,
// each with a private helper pool and a private 1/n share of the
// caches — the simulator's model of the real server's
// Config.EventLoops knob. The simulated testbed is the paper's
// uniprocessor, so here sharding exposes its costs (cache state split
// n ways, like MP, with no extra CPU to spend) — the reason the 1999
// design runs a single process. The real server's BenchmarkShardScaling
// measures the multi-core win the model cannot show.
func FlashSMPOptions(n int) Options {
	o := FlashOptions()
	if n < 1 {
		n = 1
	}
	o.Name = "Flash-SMP"
	o.NumProcs = n
	o.MaxHelpers = max(32/n, 1)
	o.PathCacheEntries = max(sharedPathEntries/n, 1)
	o.HeaderCacheEntries = max(sharedPathEntries/n, 1)
	o.MapBytes = max(sharedMapBytes/int64(n), 1)
	return o
}

// SPEDOptions returns Flash-SPED: the identical code base with the
// helper dispatch replaced by inline (blocking) disk operations.
func SPEDOptions() Options {
	o := FlashOptions()
	o.Kind = SPED
	o.Name = "SPED"
	return o
}

// MPOptions returns Flash-MP: 32 processes, each with private, smaller
// caches.
func MPOptions() Options {
	o := FlashOptions()
	o.Kind = MP
	o.Name = "MP"
	o.NumProcs = defaultProcs
	o.PathCacheEntries = perProcPathEntries
	o.HeaderCacheEntries = perProcPathEntries
	o.MapBytes = perProcMapBytes
	return o
}

// MTOptions returns Flash-MT: 32 kernel threads sharing the full-size
// caches under locks.
func MTOptions() Options {
	o := FlashOptions()
	o.Kind = MT
	o.Name = "MT"
	o.NumProcs = defaultProcs
	return o
}

// ApacheOptions models Apache 1.3.1: the MP architecture without Flash's
// aggressive optimizations — no pathname/header/mapped-file caching,
// read()-based file I/O with a user-space copy, a heavier per-request
// code path, and no header alignment.
func ApacheOptions() Options {
	o := MPOptions()
	o.Name = "Apache"
	o.UsePathCache = false
	o.UseRespCache = false
	o.UseMapCache = false
	o.UseMmapIO = false
	o.AlignedHeaders = false
	o.App = DefaultAppCosts()
	o.App.PerRequest = 160 * time.Microsecond
	o.App.PerByte = 26 * time.Nanosecond
	o.ReadAheadBytes = 16 << 10
	return o
}

// ZeusOptions models Zeus v1.30: a tuned SPED server (optionally two
// processes, the vendor-advised real-workload configuration) with its
// own caching, but without Flash's byte-position alignment — the cause
// of the Figure 7 anomaly — and with request handling that favors small
// documents (the Figure 9 late-knee behaviour).
func ZeusOptions(nprocs int) Options {
	o := FlashOptions()
	o.Kind = SPED
	o.Name = "Zeus"
	if nprocs < 1 {
		nprocs = 1
	}
	o.NumProcs = nprocs
	o.AlignedHeaders = false
	// 27 characters: headers for 5-digit content lengths land on 32-byte
	// boundaries, so the misalignment penalty appears only above ~100 KB
	// (and, negligibly, below 10 KB) — the Figure 7 dip.
	o.ServerName = "Zeus/1.30-behavioural-model"
	o.SmallFilePriority = true
	o.App = DefaultAppCosts()
	o.App.PerRequest = 20 * time.Microsecond
	return o
}
