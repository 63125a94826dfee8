package observe

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startTestServer(t *testing.T, gather func() *MetricSet, flight *FlightRecorder) *Server {
	t.Helper()
	s := NewServer("127.0.0.1:0", gather, flight)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServerEndpoints: every endpoint of the mux answers with the right
// status, content type, and payload shape.
func TestServerEndpoints(t *testing.T) {
	tel := NewTelemetry(4)
	tel.ObservePass([NumPhases]time.Duration{PhaseMove: time.Millisecond}, 0.1)
	tel.RecordRun(RunRecord{Algorithm: "leiden", WallSeconds: 0.01})
	gather := func() *MetricSet {
		ms := NewMetricSet()
		tel.AddTo(ms)
		return ms
	}
	s := startTestServer(t, gather, tel.Flight())
	base := "http://" + s.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics content type %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE gveleiden_phase_duration_seconds histogram",
		"gveleiden_phase_duration_seconds_sum",
		"gveleiden_telemetry_runs_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, hdr = get(t, base+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/metrics.json status %d type %q", code, hdr.Get("Content-Type"))
	}
	var metrics []Metric
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("/metrics.json not a metric array: %v", err)
	}

	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body, _ = get(t, base+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight status %d", code)
	}
	var dump struct {
		Total   uint64      `json:"total"`
		Records []RunRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/flight not valid JSON: %v", err)
	}
	if dump.Total != 1 || len(dump.Records) != 1 || dump.Records[0].Algorithm != "leiden" {
		t.Errorf("/debug/flight dump mismatch: %+v", dump)
	}

	code, body, _ = get(t, base+"/debug/vars")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/debug/vars = %d, valid JSON = %v", code, json.Valid([]byte(body)))
	}

	code, body, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// TestServerNilComponents: nil gather and nil flight serve empty
// payloads, not panics.
func TestServerNilComponents(t *testing.T) {
	s := startTestServer(t, nil, nil)
	base := "http://" + s.Addr()
	if code, _, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics with nil gather: %d", code)
	}
	code, body, _ := get(t, base+"/debug/flight")
	if code != http.StatusOK || !strings.Contains(body, `"records": []`) {
		t.Fatalf("/debug/flight with nil flight: %d %q", code, body)
	}
}

// TestServerBindFailure: a bad address fails synchronously from Start —
// the bug the old -pprof goroutine had.
func TestServerBindFailure(t *testing.T) {
	s1 := startTestServer(t, nil, nil)
	s2 := NewServer(s1.Addr(), nil, nil) // same port: must collide
	if err := s2.Start(); err == nil {
		s2.Shutdown(context.Background())
		t.Fatal("Start on an occupied port did not fail")
	}
}

// TestServerShutdownIdempotent: Shutdown before Start and double
// Shutdown are clean.
func TestServerShutdownIdempotent(t *testing.T) {
	s := NewServer("127.0.0.1:0", nil, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown before start: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", s.Addr())); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}
