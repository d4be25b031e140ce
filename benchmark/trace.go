package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one repeat or request share Trace;
// Parent is the ID of the span that caused this one (0 = root). Times are
// nanoseconds since the tracer was created.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Trace   int64  `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span under parent (nil = root) in the given trace.
func (t *tracer) begin(name string, parent *openSpan, trace int64) *openSpan {
	return t.beginAt(name, parent.id(), trace, time.Now())
}

// beginAt starts a span whose parent is known only by ID (a request header
// carried it) or whose start is an instant in the past (a due time).
func (t *tracer) beginAt(name string, parent, trace int64, start time.Time) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, start: start, s: span{ID: id, Parent: parent, Trace: trace, Name: name}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() { o.endAt(time.Now()) }

func (o *openSpan) endAt(end time.Time) {
	if o == nil {
		return
	}
	o.s.StartNS = o.start.Sub(o.t.epoch).Nanoseconds()
	o.s.EndNS = end.Sub(o.t.epoch).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// write stores the spans as one JSON array in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, blob, 0o644)
}

// selfTimes prints, per span name, the count, the total time and the self
// time: a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes(w io.Writer) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	childNS := make(map[int64]int64, len(spans))
	for _, s := range spans {
		childNS[s.Parent] += s.EndNS - s.StartNS
	}
	type agg struct{ n, total, self int64 }
	byName := make(map[string]*agg)
	var names []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.EndNS - s.StartNS
		a.n++
		a.total += d
		a.self += max(d-childNS[s.ID], 0)
	}
	sort.Strings(names)
	for _, name := range names {
		a := byName[name]
		fmt.Fprintf(w, "span %-22s n=%-6d total=%.3fms self=%.3fms\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
