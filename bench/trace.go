package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Spans of one request share Req; a
// span's self time is its duration minus what its children cover.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until it is written out.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// add appends a span and returns its id.
func (l *spanLog) add(name string, parent, req, start, end int64) int64 {
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// maxTracedRequests bounds how many request trees reach the span file
// (hot_pipelined completes ~300k requests in a traced window; at ~5
// spans each the file would be 150 MB). The medians are over all of
// them either way.
const maxTracedRequests = 20000

// addRequests turns the generator's per-request records into span
// trees: a root per request with connect / write / ttfb / body children.
// base is the generator's time zero on this log's clock.
func (l *spanLog) addRequests(workload string, rs []reqSpan, base int64) {
	for i, r := range rs[:min(len(rs), maxTracedRequests)] {
		req := int64(i + 1)
		for _, t := range []*int64{&r.intended, &r.start, &r.connected, &r.written, &r.ttfb, &r.end} {
			if *t > 0 {
				*t += base
			}
		}
		root := l.add("request:"+workload, 0, req, r.intended, r.end)
		if r.connected > 0 {
			l.add("connect", root, req, r.start, r.connected)
			l.add("write", root, req, r.connected, r.written)
		} else {
			l.add("write", root, req, r.start, r.written)
		}
		if r.ttfb > 0 {
			l.add("ttfb", root, req, r.written, r.ttfb)
			l.add("body", root, req, r.ttfb, r.end)
		}
	}
}

// selfTime is a span's duration minus the time its direct children cover.
func (l *spanLog) selfTime(id int64) int64 {
	s := l.spans[id-1]
	self := s.End - s.Start
	for _, c := range l.spans {
		if c.Parent == id {
			self -= c.End - c.Start
		}
	}
	return self
}

// write stores the log as dir/trace-<workload>.json.
func (l *spanLog) write(dir, workload string, fp fingerprint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	head, _ := json.Marshal(fp)
	fmt.Fprintf(w, "{\"workload\":%q,\"fingerprint\":%s,\"spans\":[\n", workload, head)
	for i, s := range l.spans {
		b, _ := json.Marshal(s)
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
