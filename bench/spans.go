package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one operation share Op; Parent is the ID of
// the span that caused this one (-1 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the tracer started
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with no recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle on an open span; the zero value is the no-op handle of
// an untraced pass.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) begin(name string, parent, op int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

// root opens a span with no parent for operation op (-1: not part of an op).
func (t *tracer) root(name string, op int) spanRef { return t.begin(name, -1, op) }

// child opens a span caused by s, in the same operation.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	s.t.mu.Lock()
	op := s.t.spans[s.id].Op
	s.t.mu.Unlock()
	return s.t.begin(name, s.id, op)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Seconds()
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMs returns the durations of every span with the given name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, (s.End-s.Start)*1e3)
		}
	}
	return out
}

// checkSpans reports the first malformed span: one that ends before it
// starts, names a parent that does not exist, belongs to another operation
// than its parent, or is not inside its parent's interval.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d (%s) has parent %d, which was not open before it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Op != p.Op {
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%g,%g] is outside its parent %d (%s) [%g,%g]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes sums, by span name, each span's duration minus the part of its
// interval that its direct children cover (children may run concurrently,
// so the covered part is the union of their intervals).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// writeSpans writes the spans as JSONL, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
