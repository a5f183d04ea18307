package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request (one
// solve, one job) share a TraceID; Parent is the ID of the span that caused
// this one, 0 for a root. Count and Bytes are the work done inside the span:
// operations (nonzeros, elements, iterations, jobs) and computed bytes.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	TraceID int     `json:"trace_id"`
	Name    string  `json:"name"`
	Start   int64   `json:"start_ns"`
	End     int64   `json:"end_ns"`
	Count   float64 `json:"count,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, traceID int, start, end time.Time, count float64, bytes int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if traceID == 0 {
		traceID = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, TraceID: traceID, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Count: count, Bytes: bytes})
	return id
}

// open reserves a span whose end is not known yet; close it with finish.
func (t *tracer) open(name string, parent, traceID int, start time.Time) int {
	return t.add(name, parent, traceID, start, start, 0, 0)
}

func (t *tracer) finish(id int, end time.Time, count float64, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Count, s.Bytes = end.Sub(t.t0).Nanoseconds(), count, bytes
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the span file of one traced run.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Host     hostInfo `json:"host"`
	Spans    []span   `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("benchmark: span file: %w", err)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("benchmark: span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("benchmark: span file: %w", err)
	}
	return nil
}
