package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from bench/ into a layer. Spans live in memory
// until the benchmark ends; a nil *tracer records nothing, which is how
// every end-to-end metric is measured (tracing off).
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int32
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id for
// end. Both are no-ops on a nil tracer.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// totals sums span durations by name, in seconds.
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	for i := range t.spans {
		s := &t.spans[i]
		out[s.Name] += float64(s.EndNs-s.StartNs) / 1e9
	}
	return out
}

// selfTimes sums, by name, each span's duration minus the part its direct
// children cover — the time spent in the layer itself, in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.EndNs - s.StartNs
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	for i := range t.spans {
		out[t.spans[i].Name] += float64(self[i]) / 1e9
	}
	return out
}

// spanFile is what -spans writes: every span of the run plus the
// per-name self times derived from them.
type spanFile struct {
	Spans  []span             `json:"spans"`
	SelfS  map[string]float64 `json:"self_s"`
	TotalS map[string]float64 `json:"total_s"`
}

func writeSpans(path string, tracers []*tracer) error {
	f := spanFile{SelfS: map[string]float64{}, TotalS: map[string]float64{}}
	for _, t := range tracers {
		base := int32(len(f.Spans))
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			f.Spans = append(f.Spans, s)
		}
		for name, v := range t.selfTimes() {
			f.SelfS[t.workload+"/"+name] = v
		}
		for name, v := range t.totals() {
			f.TotalS[t.workload+"/"+name] = v
		}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
