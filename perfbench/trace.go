package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// tracer keeps spans in memory: one per call into a layer's public
// function, made by the benchmark around that call. A nil *tracer is the
// untraced run: every method is a no-op, so the measured code is the same
// in both runs and the difference between them is the tracing overhead.
type tracer struct {
	spans  []span
	counts map[string]float64
}

// span is one timed call. Parent is the index of the enclosing span (-1 at
// the top); Op is the index of the workload op the call belongs to (-1 for
// set-up and for calls outside any op).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	// AllocBytes and AllocObjects are the process-wide heap allocation
	// during the span.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`

	from counters
}

func newTracer() *tracer { return &tracer{counts: map[string]float64{}} }

// begin opens a span and returns its index, to pass to end and as the
// parent of nested spans.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	c := readCounters()
	t.spans = append(t.spans, span{Name: name, Start: c.wall.UnixNano(), Parent: parent, Op: op, from: c})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	c := readCounters()
	s := &t.spans[id]
	s.End = c.wall.UnixNano()
	s.AllocBytes = c.allocBytes - s.from.allocBytes
	s.AllocObjects = c.allocObjects - s.from.allocObjects
}

// count adds v to a named counter measured at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// spanStats sums the spans called name over ops [from, to).
type spanStats struct {
	n            int
	total        float64 // ms
	allocBytes   uint64
	allocObjects uint64
}

func (t *tracer) sum(name string, from, to int) spanStats {
	var st spanStats
	for _, s := range t.spans {
		if s.Name != name || s.Op < from || s.Op >= to {
			continue
		}
		st.n++
		st.total += float64(s.End-s.Start) / 1e6
		st.allocBytes += s.AllocBytes
		st.allocObjects += s.AllocObjects
	}
	return st
}

// meanMS is the mean span duration, in milliseconds.
func (s spanStats) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total / float64(s.n)
}

// write stores every span as one JSON object a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
