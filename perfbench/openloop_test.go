package main

import (
	"sync"
	"testing"
	"time"
)

func TestOpenLoopDueTimesIgnoreProgress(t *testing.T) {
	start := time.Unix(1000, 0)
	o := newOpenLoop(start, 500) // one request every 2 ms
	for i := int64(0); i < 5; i++ {
		idx, due := o.claim()
		if idx != i || !due.Equal(start.Add(time.Duration(i)*2*time.Millisecond)) {
			t.Fatalf("claim %d = (%d, %v), want due %v", i, idx, due.Sub(start), time.Duration(i)*2*time.Millisecond)
		}
	}
}

func TestOpenLoopClaimsAreUniqueAcrossWorkers(t *testing.T) {
	o := newOpenLoop(time.Now(), 1000)
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 250; k++ {
				i, _ := o.claim()
				mu.Lock()
				if seen[i] {
					t.Errorf("index %d claimed twice", i)
				}
				seen[i] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 1000 {
		t.Fatalf("%d distinct indices, want 1000", len(seen))
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(1000, 0)
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	// The connection was busy with the previous request until 3 ms past
	// due; sent right then and answered 1 ms later, the caller waited
	// 4 ms and all of it is charged.
	queued := outcome{due: due, free: due.Add(ms(3)), sent: due.Add(ms(3)), done: due.Add(ms(4)), ok: true}
	if queued.latency() != ms(4) || queued.lag() != ms(3) {
		t.Errorf("queued request: latency %v lag %v, want 4ms and 3ms", queued.latency(), queued.lag())
	}
	// The connection was free at due but the client's timer woke 0.5 ms
	// late: the lag shows it, the latency does not.
	overslept := outcome{due: due, free: due.Add(-ms(1)), sent: due.Add(ms(0.5)), done: due.Add(ms(1.5)), ok: true}
	if overslept.latency() != ms(1) || overslept.lag() != ms(0.5) {
		t.Errorf("overslept request: latency %v lag %v, want 1ms and 0.5ms", overslept.latency(), overslept.lag())
	}
	// Busy until 2 ms past due, then the timer added another 0.5 ms.
	both := outcome{due: due, free: due.Add(ms(2)), sent: due.Add(ms(2.5)), done: due.Add(ms(3.5)), ok: true}
	if both.latency() != ms(3) || both.lag() != ms(2.5) {
		t.Errorf("queued and overslept request: latency %v lag %v, want 3ms and 2.5ms", both.latency(), both.lag())
	}
	// A request sent early has no lag.
	early := outcome{due: due, sent: due.Add(-time.Microsecond), done: due.Add(ms(1)), ok: true}
	if early.lag() != 0 || early.latency() != ms(1) {
		t.Errorf("early request: latency %v lag %v, want 1ms and 0", early.latency(), early.lag())
	}

	var l loadLog
	l.add(queued)
	l.add(overslept)
	l.add(outcome{due: due, sent: due, done: due.Add(ms(2)), ok: false})
	lat, lag, failed := l.summary()
	if failed != 1 || len(lat) != 3 || lat[0] != 4000 || lat[1] != 1000 || lat[2] != 2000 || lag[0] != 3 {
		t.Errorf("summary = %v µs, %v ms, %d failed", lat, lag, failed)
	}
}
