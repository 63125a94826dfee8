package observe

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTelemetryAccumulates: passes and runs feed the histograms and
// counters, and AddTo exposes them with the expected names.
func TestTelemetryAccumulates(t *testing.T) {
	tel := NewTelemetry(8)
	for run := 0; run < 3; run++ {
		for pass := 0; pass < 2; pass++ {
			tel.ObserveIteration(10)
			tel.ObservePass([NumPhases]time.Duration{
				PhaseMove: 5 * time.Millisecond, PhaseRefine: 2 * time.Millisecond,
				PhaseAggregate: time.Millisecond, PhaseOther: 500 * time.Microsecond,
			}, 0.01)
		}
		tel.RecordRun(RunRecord{Algorithm: "leiden", WallSeconds: 0.02})
	}
	if tel.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", tel.Runs())
	}
	if got := tel.Flight().Total(); got != 3 {
		t.Fatalf("flight Total = %d, want 3", got)
	}

	ms := NewMetricSet()
	tel.AddTo(ms)
	var buf bytes.Buffer
	if err := ms.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE gveleiden_phase_duration_seconds histogram",
		`gveleiden_phase_duration_seconds_count{phase="move"} 6`,
		`gveleiden_phase_duration_seconds_count{phase="refine"} 6`,
		`gveleiden_phase_duration_seconds_count{phase="color"} 0`,
		"gveleiden_pass_duration_seconds_count 6",
		"gveleiden_run_duration_seconds_count 3",
		"gveleiden_pass_delta_q_count 6",
		"gveleiden_telemetry_runs_total 3",
		"gveleiden_telemetry_passes_total 6",
		"gveleiden_telemetry_iterations_total 6",
		"gveleiden_telemetry_moves_total 60",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The 5ms move observations must be below an ~8ms bound and the
	// cumulative counts non-decreasing (checked structurally in
	// metrics_test; here just confirm the bucket line shape exists).
	if !strings.Contains(out, `gveleiden_phase_duration_seconds_bucket{le="+Inf",phase="move"} 6`) {
		t.Errorf("missing +Inf bucket for move phase:\n%s", out)
	}
}

// TestTelemetryRegionHistogram: the region histogram handed to the pool
// feeds back into the exposition.
func TestTelemetryRegionHistogram(t *testing.T) {
	tel := NewTelemetry(0)
	tel.Region().ObserveDuration(3 * time.Millisecond)
	ms := NewMetricSet()
	tel.AddTo(ms)
	var buf bytes.Buffer
	if err := ms.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gveleiden_pool_region_seconds_count 1") {
		t.Errorf("region observation not exposed:\n%s", buf.String())
	}
}

// TestTelemetryNil: a nil telemetry is inert everywhere it is wired.
func TestTelemetryNil(t *testing.T) {
	var tel *Telemetry
	tel.ObserveIteration(0)
	tel.ObservePass([NumPhases]time.Duration{}, 0)
	tel.RecordRun(RunRecord{})
	if tel.Runs() != 0 {
		t.Fatal("nil telemetry counted a run")
	}
	if tel.Region() != nil || tel.Flight() != nil {
		t.Fatal("nil telemetry handed out non-nil components")
	}
	ms := NewMetricSet()
	tel.AddTo(ms)
	if ms.Len() != 0 {
		t.Fatalf("nil telemetry added %d metrics", ms.Len())
	}
	// And the components it hands out are themselves nil-safe.
	tel.Region().Observe(1)
	tel.Flight().Add(RunRecord{})
}

// BenchmarkTelemetryObservePass: the per-pass feed stays
// allocation-free, so wiring telemetry into a run adds no GC pressure.
func BenchmarkTelemetryObservePass(b *testing.B) {
	tel := NewTelemetry(8)
	phases := [NumPhases]time.Duration{PhaseMove: time.Millisecond, PhaseRefine: time.Millisecond,
		PhaseAggregate: time.Millisecond, PhaseOther: time.Millisecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tel.ObservePass(phases, 0.1)
	}
	if a := testing.AllocsPerRun(100, func() { tel.ObservePass(phases, 0.1) }); a != 0 {
		b.Fatalf("ObservePass allocates %v per call, want 0", a)
	}
}
