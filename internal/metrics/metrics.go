// Package metrics provides the measurement and reporting types shared
// by the experiment harness: throughput summaries, log-scale latency
// histograms, and the series/table structures that render each paper
// figure as text or CSV.
//
// It serves only the simulator. The log2 histogram reports every
// percentile as a power-of-two bucket edge, which is enough to compare
// simulated architectures and too coarse for a real server: flashd is
// measured by the benchmark under bench/, which records exact samples.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary describes one measurement window.
type Summary struct {
	Duration  time.Duration
	Responses uint64
	Bytes     int64
	Errors    uint64
}

// MbitPerSec returns output bandwidth in megabits per second (the
// paper's bandwidth unit).
func (s Summary) MbitPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / 1e6 / s.Duration.Seconds()
}

// RequestsPerSec returns the connection/request rate.
func (s Summary) RequestsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Responses) / s.Duration.Seconds()
}

// Merge combines two summaries measured over the same wall-clock window
// (per-shard or per-worker views of one run): counts add, the duration
// is the longer of the two.
func (s Summary) Merge(o Summary) Summary {
	if o.Duration > s.Duration {
		s.Duration = o.Duration
	}
	s.Responses += o.Responses
	s.Bytes += o.Bytes
	s.Errors += o.Errors
	return s
}

// Sub returns the window from an earlier snapshot to this one.
func (s Summary) Sub(earlier Summary) Summary {
	return Summary{
		Duration:  s.Duration - earlier.Duration,
		Responses: s.Responses - earlier.Responses,
		Bytes:     s.Bytes - earlier.Bytes,
		Errors:    s.Errors - earlier.Errors,
	}
}

// Histogram is a logarithmic-bucket latency histogram. The zero value
// is ready to use.
type Histogram struct {
	counts [64]uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := int(math.Log2(float64(d))) - 9 // bucket 0 ≈ <1µs
	if b < 0 {
		b = 0
	}
	if b >= 64 {
		b = 63
	}
	return b
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds another histogram's samples into h. Owners that shard
// recording across workers or event loops (so the hot path stays
// lock-free) aggregate the private histograms with Merge at snapshot
// time.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min and Max return the extreme samples.
func (h *Histogram) Min() time.Duration { return h.min }
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) based
// on bucket boundaries.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return time.Duration(1) << (uint(i) + 10)
		}
	}
	return h.max
}

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64
	Y float64
}

// Series is one labeled curve.
type Series struct {
	Name   string
	Points []Point
}

// Y returns the Y value at the given X, or NaN if absent.
func (s *Series) Y(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return math.NaN()
}

// Table is the data behind one paper figure.
type Table struct {
	ID     string // e.g. "fig6a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// XTicks optionally maps X values to categorical labels (bar
	// charts, e.g. server names in Figure 8).
	XTicks map[float64]string
}

// tick renders an X value, preferring its categorical label.
func (t *Table) tick(x float64) string {
	if lbl, ok := t.XTicks[x]; ok {
		return lbl
	}
	return trimFloat(x)
}

// AddPoint appends a point to the named series, creating it on first
// use (series keep insertion order).
func (t *Table) AddPoint(series string, x, y float64) {
	for i := range t.Series {
		if t.Series[i].Name == series {
			t.Series[i].Points = append(t.Series[i].Points, Point{x, y})
			return
		}
	}
	t.Series = append(t.Series, Series{Name: series, Points: []Point{{x, y}}})
}

// Get returns the named series, or nil.
func (t *Table) Get(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// XValues returns the sorted union of X values across series.
func (t *Table) XValues() []float64 {
	seen := map[float64]bool{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			seen[p.X] = true
		}
	}
	xs := make([]float64, 0, len(seen))
	for x := range seen {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

// Render formats the table as aligned text columns (one row per X).
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%s vs %s\n", t.YLabel, t.XLabel)

	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	rows := [][]string{cols}
	for _, x := range t.XValues() {
		row := []string{t.tick(x)}
		for i := range t.Series {
			y := t.Series[i].Y(x)
			if math.IsNaN(y) {
				row = append(row, "-")
			} else {
				row = append(row, trimFloat(y))
			}
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(cols))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range t.XValues() {
		b.WriteString(csvEscape(t.tick(x)))
		for i := range t.Series {
			b.WriteByte(',')
			y := t.Series[i].Y(x)
			if !math.IsNaN(y) {
				b.WriteString(trimFloat(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1f", v)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
