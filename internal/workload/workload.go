// Package workload generates and manipulates the request streams used
// by the paper's evaluation:
//
//   - the trivial single-file workload (Figures 6, 7, 11)
//   - trace-driven workloads with the statistical character of the Rice
//     CS, Owlnet and ECE access logs (Figures 8, 9, 10, 12), including
//     the paper's dataset-size truncation method ("truncate [the log] as
//     appropriate to achieve a given dataset size")
//   - import of real Common Log Format logs, when available
//
// A Trace is a concrete request sequence over a concrete file set; the
// simulator materializes the file set into its virtual filesystem and
// replays the sequence through closed-loop clients.
package workload

import (
	"fmt"
	"sort"
)

// Entry is one request of a trace.
type Entry struct {
	// Path is the request target.
	Path string
	// Size is the response body size in bytes.
	Size int64
}

// Trace is a request sequence over a file population.
type Trace struct {
	// Name labels the trace in reports.
	Name string
	// Entries is the request sequence, replayed as a loop.
	Entries []Entry
	// Files maps each distinct path to its size.
	Files map[string]int64
}

// DatasetBytes returns the total size of distinct files (the paper's
// "dataset size").
func (t *Trace) DatasetBytes() int64 {
	var sum int64
	for _, s := range t.Files {
		sum += s
	}
	return sum
}

// NumFiles returns the number of distinct files.
func (t *Trace) NumFiles() int { return len(t.Files) }

// MeanTransfer returns the mean response size over the request sequence
// (request-weighted, not file-weighted).
func (t *Trace) MeanTransfer() float64 {
	if len(t.Entries) == 0 {
		return 0
	}
	var sum int64
	for _, e := range t.Entries {
		sum += e.Size
	}
	return float64(sum) / float64(len(t.Entries))
}

// WorkingSetBytes returns the total size of files covering the given
// fraction of requests, counting from the most popular file down — a
// standard locality summary.
func (t *Trace) WorkingSetBytes(frac float64) int64 {
	counts := make(map[string]int64, len(t.Files))
	for _, e := range t.Entries {
		counts[e.Path]++
	}
	type pc struct {
		path string
		n    int64
	}
	list := make([]pc, 0, len(counts))
	var total int64
	for p, n := range counts {
		list = append(list, pc{p, n})
		total += n
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].path < list[j].path
	})
	target := int64(frac * float64(total))
	var covered, bytes int64
	for _, e := range list {
		if covered >= target {
			break
		}
		covered += e.n
		bytes += t.Files[e.path]
	}
	return bytes
}

// Validate checks internal consistency.
func (t *Trace) Validate() error {
	for i, e := range t.Entries {
		size, ok := t.Files[e.Path]
		if !ok {
			return fmt.Errorf("workload: entry %d references unknown file %q", i, e.Path)
		}
		if size != e.Size {
			return fmt.Errorf("workload: entry %d size %d != file size %d", i, e.Size, size)
		}
	}
	return nil
}

// Truncate returns a new trace cut off at the point where the distinct
// files seen reach approximately maxDataset bytes — the paper's method
// for generating inputs of a given dataset size from one log. The
// truncated request prefix is what clients replay (as a loop).
func (t *Trace) Truncate(maxDataset int64) *Trace {
	out := &Trace{
		Name:  fmt.Sprintf("%s[%dMB]", t.Name, maxDataset>>20),
		Files: make(map[string]int64),
	}
	var dataset int64
	for _, e := range t.Entries {
		if _, seen := out.Files[e.Path]; !seen {
			if dataset+e.Size > maxDataset && len(out.Files) > 0 {
				break
			}
			out.Files[e.Path] = e.Size
			dataset += e.Size
		}
		out.Entries = append(out.Entries, e)
	}
	return out
}

// SingleFile builds the trivial workload: every request fetches the same
// cached file of the given size (Figures 6, 7, 11).
func SingleFile(size int64) *Trace {
	path := fmt.Sprintf("/file%d.html", size)
	return &Trace{
		Name:    fmt.Sprintf("single[%d]", size),
		Entries: []Entry{{Path: path, Size: size}},
		Files:   map[string]int64{path: size},
	}
}
