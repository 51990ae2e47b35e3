package main

import (
	"fmt"
	"math"
	"strings"
)

// checkInvariants verifies, from the server's own counters, that a
// window exercised the path its workload exists for. A violation is not
// a slow run but a meaningless one: the caller prints no number for it.
func checkInvariants(wl *workload, w *window, layer []metric, conns int) (broken []string) {
	m := map[string]float64{}
	for _, x := range layer {
		m[x.name] = x.value
	}
	d := w.srv
	fail := func(format string, args ...any) { broken = append(broken, fmt.Sprintf(format, args...)) }
	near := func(name string, want, tol float64) {
		if got := m[name]; math.IsNaN(got) || math.Abs(got-want) > tol {
			fail("%s = %.4f, want %.4f ± %.4f", name, got, want, tol)
		}
	}

	if w.load.attempted == 0 || w.validated() == 0 {
		fail("no request completed inside the window")
	}
	switch {
	case wl.proxy:
		near("flash.proxy_hit_ratio", proxyHitFrac, 0.02)
		near("flash.proxy_reval_frac", proxyRevalFrac, 0.02)
		near("flash.proxy_fill_frac", 1-proxyHitFrac-proxyRevalFrac, 0.02)
		near("flash.proxy_error_frac", 0, 0)
	case wl.classes[0] >= 256*kib:
		if got := m["flash.sendfile_byte_frac"]; got < 0.99 {
			fail("flash.sendfile_byte_frac = %.4f, want >= 0.99", got)
		}
	case wl.pinnedChunkHit > 0:
		near("cache.chunk_hit_ratio", wl.pinnedChunkHit, 0.05)
		if m["flash.helper_jobs_per_req"] == 0 {
			fail("flash.helper_jobs_per_req = 0: nothing missed the cache")
		}
	default:
		// The data set fits every cache, so after the warm-up no lookup
		// misses and the helpers see only the pathname cache's periodic
		// re-stat of each file (default RevalidateInterval: 2 s) — never
		// a chunk read, so nothing is inserted either.
		near("cache.chunk_hit_ratio", 1, 0)
		near("cache.path_hit_ratio", 1, 0)
		restats := float64(wl.files*max(w.shards, 1)) * (w.dur.Seconds()/2 + float64(w.parts))
		if jobs := float64(d.HelperJobs); jobs > restats {
			fail("%d helper jobs in the window, want at most %.0f re-stats", d.HelperJobs, restats)
		}
		if d.SharedChunks.Inserts != 0 || d.Fills.Started != 0 {
			fail("%d chunk inserts and %d fills in a window over a cached data set", d.SharedChunks.Inserts, d.Fills.Started)
		}
	}
	// One of each window's responses is its opening status scrape, and
	// up to conns connections straddle each of its edges.
	parts := int64(w.parts)
	if wl.churn {
		if diff := int64(d.Accepted) - (int64(d.Responses) - parts); diff < -2*int64(conns)*parts || diff > 2*int64(conns)*parts {
			fail("%d accepts for %d responses: not one connection per request", d.Accepted, int64(d.Responses)-parts)
		}
	} else if int64(d.Accepted) > parts {
		fail("%d accepts on a keep-alive workload", d.Accepted)
	}
	return broken
}

func brokenError(wl *workload, broken []string) error {
	return fmt.Errorf("%s did not exercise its intended path:\n  %s", wl.name, strings.Join(broken, "\n  "))
}
