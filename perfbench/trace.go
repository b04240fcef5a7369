package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span in the same job, or -1 for the job's root.
type span struct {
	Name   string
	Job    int
	Parent int
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// tracer keeps spans in memory for the whole traced run; they are
// written out only at the end, so recording costs an append and a
// clock read. It is safe for concurrent use (the serve-jobs
// composition runs one job per client goroutine).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, job, parent int) int {
	start := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: start, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, job, parent int, fn func(id int)) {
	id := t.begin(name, job, parent)
	fn(id)
	t.end(id)
}

// spanTotals is the per-name aggregate of a finished trace.
type spanTotals struct {
	count     map[string]int
	total     map[string]float64   // inclusive seconds
	self      map[string]float64   // seconds not covered by child spans
	durations map[string][]float64 // inclusive seconds of each span
	rootTotal float64              // summed duration of root spans
	rootSelf  float64              // root time no child span covers
}

// totals computes inclusive and self time per span name. A span's self
// time is its duration minus the part its children cover; children of
// one span never overlap (a layer calls the next one synchronously),
// so the covered part is the sum of their durations.
func (t *tracer) totals() spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End-s.Start) / 1e9
		}
	}
	st := spanTotals{
		count:     map[string]int{},
		total:     map[string]float64{},
		self:      map[string]float64{},
		durations: map[string][]float64{},
	}
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e9
		st.count[s.Name]++
		st.total[s.Name] += d
		st.self[s.Name] += d - child[i]
		st.durations[s.Name] = append(st.durations[s.Name], d)
		if s.Parent < 0 {
			st.rootTotal += d
			st.rootSelf += d - child[i]
		}
	}
	return st
}

// write dumps the spans as JSON, sorted by start time, next to the
// host fingerprint the result carries.
func (t *tracer) write(path string, header any) error {
	t.mu.Lock()
	rows := make([][6]any, len(t.spans))
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].Start < t.spans[order[b]].Start })
	for k, i := range order {
		s := t.spans[i]
		rows[k] = [6]any{i, s.Parent, s.Job, s.Name, s.Start, s.End}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{
		"header":  header,
		"columns": []string{"id", "parent", "job", "name", "start_ns", "end_ns"},
		"spans":   rows,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
