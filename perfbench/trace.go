package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Spans of one
// server swap share a Swap id; Parent links a span to the span that
// caused it (0 for a root).
type span struct {
	Name   string
	ID     int64
	Parent int64
	Swap   int64
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// tracer records spans around the benchmark's calls into the program.
// A nil tracer times calls without recording them, so the untraced and
// traced runs execute the same code and differ only in the recording.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active is a span that has begun and not yet ended.
type active struct {
	t     *tracer
	idx   int
	start time.Time
}

// begin starts a span named name. Its id is fixed at begin, so spans it
// causes can name it as their parent before it ends.
func (t *tracer) begin(name string, parent, swap int64) active {
	a := active{t: t, idx: -1, start: time.Now()}
	if t == nil {
		return a
	}
	t.mu.Lock()
	a.idx = len(t.spans)
	t.spans = append(t.spans, span{name, int64(a.idx + 1), parent, swap, a.start.Sub(t.origin), 0})
	t.mu.Unlock()
	return a
}

// id returns the span's id (0 when not recording).
func (a active) id() int64 { return int64(a.idx + 1) }

// end closes the span and returns its wall time.
func (a active) end() time.Duration {
	now := time.Now()
	if a.t != nil {
		a.t.mu.Lock()
		a.t.spans[a.idx].End = now.Sub(a.t.origin)
		a.t.mu.Unlock()
	}
	return now.Sub(a.start)
}

// time runs f as a span and returns its wall time in seconds.
func (t *tracer) time(name string, parent, swap int64, f func()) float64 {
	a := t.begin(name, parent, swap)
	f()
	return a.end().Seconds()
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as a Chrome trace-event file (viewable in
// Perfetto or chrome://tracing), one complete event per span.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Swap,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "swap": s.Swap},
		}
	}
	t.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// spanCost measures what recording one span costs beyond timing the
// call, averaged over many empty spans on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	var untraced *tracer
	t0 := time.Now()
	for i := 0; i < n; i++ {
		untraced.begin("calibrate", 0, 0).end()
	}
	base := time.Since(t0)
	scratch := newTracer()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		scratch.begin("calibrate", 0, 0).end()
	}
	if d := (time.Since(t0) - base) / n; d > 0 {
		return d
	}
	return 0
}
