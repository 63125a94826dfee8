package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	ok := func(threads, passes int, tol, drop, aggTol, resol float64) bool {
		return validateFlags(threads, passes, tol, drop, aggTol, resol) == nil
	}
	if !ok(0, 10, 0.01, 10, 0.8, 1) {
		t.Fatalf("defaults rejected: %v", validateFlags(0, 10, 0.01, 10, 0.8, 1))
	}
	if !ok(8, 1, 1e-9, 1, 1, 0.25) {
		t.Fatalf("legal extremes rejected")
	}
	bad := []struct {
		name                     string
		threads, passes          int
		tol, drop, aggTol, resol float64
	}{
		{"negative threads", -1, 10, 0.01, 10, 0.8, 1},
		{"zero passes", 0, 0, 0.01, 10, 0.8, 1},
		{"zero tolerance", 0, 10, 0, 10, 0.8, 1},
		{"NaN tolerance", 0, 10, math.NaN(), 10, 0.8, 1},
		{"Inf tolerance", 0, 10, math.Inf(1), 10, 0.8, 1},
		{"drop below one", 0, 10, 0.01, 0.5, 0.8, 1},
		{"NaN drop", 0, 10, 0.01, math.NaN(), 0.8, 1},
		{"zero aggregation tolerance", 0, 10, 0.01, 10, 0, 1},
		{"aggregation tolerance above one", 0, 10, 0.01, 10, 1.5, 1},
		{"negative resolution", 0, 10, 0.01, 10, 0.8, -1},
		{"zero resolution", 0, 10, 0.01, 10, 0.8, 0},
		{"NaN resolution", 0, 10, 0.01, 10, 0.8, math.NaN()},
	}
	for _, tc := range bad {
		if ok(tc.threads, tc.passes, tc.tol, tc.drop, tc.aggTol, tc.resol) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// syncBuffer is a concurrency-safe io.Writer: the serve test reads the
// CLI's stdout while run() is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestRunServeEndpoints drives the full CLI in-process with -serve and
// -repeat and checks the introspection endpoints: /metrics exposes
// phase-duration histograms with a count covering every run's passes,
// /healthz answers 200, and /debug/flight dumps one record per run.
func TestRunServeEndpoints(t *testing.T) {
	const repeat = 5
	var stdout syncBuffer
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-gen", "er", "-n", "2000", "-threads", "2",
			"-serve", "127.0.0.1:0", "-repeat", fmt.Sprint(repeat),
			"-linger", "5s", "-check-disconnected=false",
			"-log-format", "json",
		}, &stdout, &stderr)
	}()

	// The serve line is printed before the runs start.
	addrRe := regexp.MustCompile(`serving on http://([\d.]+:\d+)`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no serve line in stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}

	// Wait until all runs are in the flight recorder, then check the dump.
	var flight struct {
		Total    uint64 `json:"total"`
		Capacity int    `json:"capacity"`
		Records  []struct {
			Seq       uint64  `json:"seq"`
			Algorithm string  `json:"algorithm"`
			Passes    int     `json:"passes"`
			Wall      float64 `json:"wall_seconds"`
		} `json:"records"`
	}
	for {
		_, body := httpGet(t, base+"/debug/flight")
		if err := json.Unmarshal([]byte(body), &flight); err != nil {
			t.Fatalf("/debug/flight: bad JSON: %v\n%s", err, body)
		}
		if flight.Total >= repeat {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight total = %d after deadline, want %d", flight.Total, repeat)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if flight.Total != repeat || len(flight.Records) != repeat {
		t.Fatalf("flight total=%d records=%d, want %d", flight.Total, len(flight.Records), repeat)
	}
	totalPasses := 0
	for i, r := range flight.Records {
		if r.Seq != uint64(i) {
			t.Errorf("record %d: seq = %d", i, r.Seq)
		}
		if r.Algorithm != "leiden" || r.Passes < 1 || r.Wall <= 0 {
			t.Errorf("record %d: implausible %+v", i, r)
		}
		totalPasses += r.Passes
	}

	// /metrics: the move-phase histogram counts one observation per pass
	// of every run, and the run histogram one per run.
	_, metrics := httpGet(t, base+"/metrics")
	countRe := regexp.MustCompile(`(?m)^gveleiden_phase_duration_seconds_count\{phase="move"\} (\d+)$`)
	m := countRe.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("/metrics: no move-phase histogram count:\n%.2000s", metrics)
	}
	var moveCount int
	fmt.Sscanf(m[1], "%d", &moveCount)
	if moveCount != totalPasses {
		t.Errorf("move-phase histogram count = %d, want %d (total passes)", moveCount, totalPasses)
	}
	if !strings.Contains(metrics, `gveleiden_phase_duration_seconds_bucket{le="+Inf",phase="move"}`) {
		t.Errorf("/metrics: move-phase histogram missing +Inf bucket")
	}
	if !strings.Contains(metrics, fmt.Sprintf("gveleiden_run_duration_seconds_count %d", repeat)) {
		t.Errorf("/metrics: run histogram count != %d", repeat)
	}
	if !strings.Contains(metrics, "gveleiden_runtime_goroutines") {
		t.Errorf("/metrics: sampler gauges missing")
	}

	// /metrics.json parses and carries the same histogram.
	_, jsonBody := httpGet(t, base+"/metrics.json")
	var parsed []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	if err := json.Unmarshal([]byte(jsonBody), &parsed); err != nil {
		t.Fatalf("/metrics.json: bad JSON: %v", err)
	}
	foundHist := false
	for _, mt := range parsed {
		if mt.Name == "gveleiden_phase_duration_seconds" && mt.Type == "histogram" {
			foundHist = true
		}
	}
	if !foundHist {
		t.Errorf("/metrics.json: phase-duration histogram missing")
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run() = %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run() did not return after linger")
	}
	if !strings.Contains(stderr.String(), `"msg":"run"`) {
		t.Errorf("structured log missing run-summary record:\n%s", stderr.String())
	}
}

// TestRunFlagErrors covers the exit-code contract: usage errors return
// 2, runtime failures (like a bind failure) return 1.
func TestRunFlagErrors(t *testing.T) {
	var out, errb syncBuffer
	if code := run([]string{"-repeat", "0", "-gen", "er"}, &out, &errb); code != 2 {
		t.Errorf("-repeat 0: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-gen", "nope"}, &out, &errb); code != 1 {
		t.Errorf("unknown generator: exit %d, want 1", code)
	}
	if code := run([]string{"-gen", "er", "-n", "500", "-serve", "256.256.256.256:99999"}, &out, &errb); code != 1 {
		t.Errorf("bad serve address: exit %d, want 1", code)
	}
}
