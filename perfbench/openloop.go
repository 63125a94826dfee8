package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop is a fixed-rate arrival schedule: request i is due at
// start + i·period whatever happened to earlier requests, so a stall in
// the server shows up as latency on every request that was due during
// it instead of silently lowering the offered load. Workers claim
// indices in order; a worker that is free before a request is due
// sleeps until then, and one that is busy past it sends late.
type openLoop struct {
	start  time.Time
	period time.Duration
	next   atomic.Int64
}

func newOpenLoop(start time.Time, rate float64) *openLoop {
	return &openLoop{start: start, period: time.Duration(float64(time.Second) / rate)}
}

// claim returns the next request's index and due time.
func (o *openLoop) claim() (int64, time.Time) {
	i := o.next.Add(1) - 1
	return i, o.start.Add(time.Duration(i) * o.period)
}

// outcome is one open-loop request as the client saw it: when it was
// due, when its connection became free of the previous request, when
// it was sent and when its response arrived.
type outcome struct {
	due, free, sent, done time.Time
	ok                    bool
}

// overshoot is the part of the send delay the client's own timer
// added: the time between the earliest moment the request could have
// gone out — its due time, or later if its connection was still busy —
// and when it did.
func (o outcome) overshoot() time.Duration {
	earliest := o.due
	if o.free.After(earliest) {
		earliest = o.free
	}
	if d := o.sent.Sub(earliest); d > 0 {
		return d
	}
	return 0
}

// latency is the time from when the request was due to its response.
// A request that waited for a busy connection is charged that wait; the
// client's timer overshoot is not, since a punctual user would not
// have added it.
func (o outcome) latency() time.Duration { return o.done.Sub(o.due) - o.overshoot() }

// lag is how late the generator sent the request, for any reason.
func (o outcome) lag() time.Duration {
	if d := o.sent.Sub(o.due); d > 0 {
		return d
	}
	return 0
}

// loadLog collects outcomes from concurrent workers.
type loadLog struct {
	mu       sync.Mutex
	outcomes []outcome
}

func (l *loadLog) add(o outcome) {
	l.mu.Lock()
	l.outcomes = append(l.outcomes, o)
	l.mu.Unlock()
}

// summary splits the log into latency and lag samples (µs and ms) and
// counts the failed requests. Failed requests keep their latency: a
// request that fails has still made its caller wait.
func (l *loadLog) summary() (latUS, lagMS []float64, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	latUS = make([]float64, len(l.outcomes))
	lagMS = make([]float64, len(l.outcomes))
	for i, o := range l.outcomes {
		latUS[i] = float64(o.latency()) / float64(time.Microsecond)
		lagMS[i] = float64(o.lag()) / float64(time.Millisecond)
		if !o.ok {
			failed++
		}
	}
	return latUS, lagMS, failed
}
