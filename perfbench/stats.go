package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies returns the sorted latencies in milliseconds of the
// successful samples of the given kinds, each timed from its due time.
func latencies(samples []sample, kinds ...kind) []float64 {
	var out []float64
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			continue
		}
		for _, k := range kinds {
			if s.req.kind == k {
				out = append(out, float64(s.done-s.due)/1e6)
				break
			}
		}
	}
	sort.Float64s(out)
	return out
}

// span is one timed interval of the benchmark's own trace. Spans of
// one request share Trace; Parent names the enclosing span.
type span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// durations returns the durations in microseconds of every span named
// name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (l *spanLog) medianUs(name string) float64 { return median(l.durations(name)) }

// pairedUs is the median over traces of the duration of span outer
// minus the summed durations of the inner spans of the same trace.
func (l *spanLog) pairedUs(outer string, inner ...string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := make(map[string]float64)
	seen := make(map[string]bool)
	for _, s := range l.spans {
		d := float64(s.End-s.Start) / 1e3
		if s.Name == outer {
			self[s.Trace] += d
			seen[s.Trace] = true
			continue
		}
		for _, in := range inner {
			if s.Name == in {
				self[s.Trace] -= d
			}
		}
	}
	var out []float64
	for tr, v := range self {
		if seen[tr] {
			out = append(out, v)
		}
	}
	return median(out)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
