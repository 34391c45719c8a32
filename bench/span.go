package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// unit of work (inference, request, job) share a trace id; Parent is the
// id of the span that caused this one, 0 for the unit's root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs execute the same workload code with one
// nil check per call into a layer.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(trace, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of its interval that its child spans cover. Overlapping
// children (concurrent calls) are counted once.
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			lo, hi := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64 = 0, s.Start
		for _, k := range iv {
			if k[1] <= end {
				continue
			}
			covered += k[1] - max(k[0], end)
			end = k[1]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfMsPerTrace sums self time by "layer.name" and divides by the number
// of traces: the average milliseconds each unit of work spent there.
func (t *tracer) selfMsPerTrace() map[string]float64 {
	out := map[string]float64{}
	traces := map[int]bool{}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		traces[s.Trace] = true
		out[s.Layer+"."+s.Name] += float64(self[i]) / 1e6
	}
	for k := range out {
		out[k] /= float64(len(traces))
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
