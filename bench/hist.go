package main

import (
	"cmp"
	"math"
	"slices"
)

// samples is the benchmark's latency instrument: raw nanosecond values,
// each with the time it belongs to, appended by the one goroutine that
// runs the poll loop (so recording takes no lock). Quantiles are exact
// nearest-rank order statistics — no bucket edges.
type samples struct {
	at []int64 // when the request was due, in clock nanoseconds
	ns []int64

	// Derived on first use, once recording is over.
	sorted []int64 // ns, ascending
	inTime []int64 // ns, in at order
}

func (s *samples) add(at, ns int64) {
	s.at = append(s.at, at)
	s.ns = append(s.ns, ns)
}

func (s *samples) count() int { return len(s.ns) }

// quantileOf returns the nearest-rank q-quantile (0 < q <= 1) of v: the
// smallest value with at least q of the values at or below it. It sorts
// v in place. No values read as NaN.
func quantileOf(v []int64, q float64) float64 {
	slices.Sort(v)
	return rankOf(v, q)
}

// rankOf is quantileOf for v already sorted.
func rankOf(v []int64, q float64) float64 {
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return float64(v[min(max(rank, 1), n)-1])
}

// quantile is the q-quantile over every sample.
func (s *samples) quantile(q float64) float64 {
	if len(s.sorted) != len(s.ns) {
		s.sorted = slices.Clone(s.ns)
		slices.Sort(s.sorted)
	}
	return rankOf(s.sorted, q)
}

// blockSamples is the least a block may hold: p99 of a block then has
// ten samples beyond it.
const blockSamples = 1000

// maxBlocks bounds how finely a window is cut.
const maxBlocks = 64

// quietBlocks is which block stands for the window: the one a tenth of
// the way up when blocks are ranked by the quantile asked for.
const quietBlocks = 0.10

// blockQuantile cuts the samples, in time order, into up to maxBlocks
// consecutive blocks of at least blockSamples, takes each block's
// q-quantile, and returns the value quietBlocks of the way up those,
// with the number of blocks.
//
// That is the latency the server shows while the host leaves it alone.
// On the virtual machines this benchmark runs on, the host does not for
// long: management threads share the server's CPU, a halted virtual CPU
// can take a millisecond to wake, and a timer or softirq that finds its
// CPU busy waits for the next 10 ms tick. Such a stall adds to the
// latencies of the blocks it touches — in some runs a tenth of them, in
// others half — and nothing ever subtracts, so the pooled p99 of two
// runs of the same binary differs by a factor of 2 to 10, and so does
// the median over blocks. A block low in the ranking is one the host
// stayed out of. A slow-down in the server moves every block, this one
// included; the pooled percentiles are reported beside it, ungated.
func (s *samples) blockQuantile(q float64) (float64, int) {
	n := len(s.ns)
	if n == 0 {
		return math.NaN(), 0
	}
	if len(s.inTime) != n {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(s.at[a], s.at[b]) })
		s.inTime = make([]int64, n)
		for i, j := range order {
			s.inTime[i] = s.ns[j]
		}
	}
	blocks := min(max(n/blockSamples, 1), maxBlocks)
	per := make([]float64, blocks)
	for b := range per {
		per[b] = quantileOf(slices.Clone(s.inTime[b*n/blocks:(b+1)*n/blocks]), q)
	}
	slices.Sort(per)
	return per[int(quietBlocks*float64(blocks-1))], blocks
}

// median of a small float slice (sub-window rates, set-up repeats).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}
