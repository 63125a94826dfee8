package observe

import (
	"sync/atomic"
	"time"
)

// Phase indices of Telemetry's per-phase duration histograms, matching
// the phase labels of gveleiden_pass_seconds.
const (
	PhaseMove = iota
	PhaseRefine
	PhaseAggregate
	PhaseColor
	PhaseSplit
	PhaseOther
	NumPhases
)

// phaseNames are the exposition labels, indexed by the Phase constants.
var phaseNames = [NumPhases]string{"move", "refine", "aggregate", "color", "split", "other"}

// Telemetry is the continuous, process-lifetime aggregation of run
// activity: per-phase duration histograms, pass/run duration and
// per-pass ΔQ histograms, a pool region-latency histogram, monotonic
// work counters, and a flight recorder of recent runs. One Telemetry
// outlives many runs — core.TelemetryObserver feeds it every pass and
// iteration of every run it is wired into, and a scrape (AddTo) can
// happen concurrently with a run in flight.
//
// A nil *Telemetry is the "telemetry off" state: every method is a
// cheap no-op, and the histograms it hands out are nil (which Observe
// also tolerates), so call sites never need their own guard.
//
//gvevet:nilsafe
type Telemetry struct {
	phase  [NumPhases]*Histogram // per-phase durations, seconds
	pass   *Histogram            // whole-pass durations, seconds
	run    *Histogram            // whole-run durations, seconds
	deltaQ *Histogram            // per-pass ΔQ gained by local moving
	region *Histogram            // parallel.Pool region latencies, seconds

	flight *FlightRecorder

	runs       atomic.Uint64
	passes     atomic.Uint64
	iterations atomic.Uint64
	moves      atomic.Uint64
}

// NewTelemetry returns a telemetry aggregator whose flight recorder
// keeps the last flightSize runs (DefaultFlightSize when ≤ 0).
func NewTelemetry(flightSize int) *Telemetry {
	t := &Telemetry{
		pass:   NewHistogram(),
		run:    NewHistogram(),
		deltaQ: NewHistogram(),
		region: NewHistogram(),
		flight: NewFlightRecorder(flightSize),
	}
	for i := range t.phase {
		t.phase[i] = NewHistogram()
	}
	return t
}

// Region returns the pool region-latency histogram, for wiring into
// parallel.Pool.SetRegionLatency. Nil on a nil receiver.
func (t *Telemetry) Region() *Histogram {
	if t == nil {
		return nil
	}
	return t.region
}

// Flight returns the flight recorder. Nil on a nil receiver.
func (t *Telemetry) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.flight
}

// ObserveIteration counts one local-moving iteration and the moves it
// applied.
func (t *Telemetry) ObserveIteration(moves int64) {
	if t == nil {
		return
	}
	t.iterations.Add(1)
	t.moves.Add(uint64(moves))
}

// ObservePass feeds one pass into the phase, pass and ΔQ histograms:
// phases holds its durations indexed by the Phase constants, deltaQ the
// modularity its local moving gained. Color and split durations are
// recorded only when the pass had those sub-phases.
func (t *Telemetry) ObservePass(phases [NumPhases]time.Duration, deltaQ float64) {
	if t == nil {
		return
	}
	t.passes.Add(1)
	var total time.Duration
	for i, d := range phases {
		total += d
		if d > 0 || (i != PhaseColor && i != PhaseSplit) {
			t.phase[i].ObserveDuration(d)
		}
	}
	t.pass.ObserveDuration(total)
	t.deltaQ.Observe(deltaQ)
}

// RecordRun records one completed run: the run-duration histogram, the
// run counter, and the flight recorder. It returns the record as stored
// (Seq assigned by the flight recorder).
func (t *Telemetry) RecordRun(r RunRecord) RunRecord {
	if t == nil {
		return r
	}
	t.runs.Add(1)
	t.run.Observe(r.WallSeconds)
	return t.flight.Add(r)
}

// Runs returns the number of runs recorded via RecordRun.
func (t *Telemetry) Runs() uint64 {
	if t == nil {
		return 0
	}
	return t.runs.Load()
}

// AddTo appends the telemetry exposition to ms: the histograms (as
// Prometheus histogram type) and the lifetime counters. Safe to call
// while runs are in flight — each histogram snapshot is internally
// consistent.
func (t *Telemetry) AddTo(ms *MetricSet) {
	if t == nil {
		return
	}
	for i, h := range t.phase {
		ms.Histogram("gveleiden_phase_duration_seconds",
			"per-pass phase durations across runs",
			h.Snapshot(), L("phase", phaseNames[i]))
	}
	ms.Histogram("gveleiden_pass_duration_seconds",
		"whole-pass durations across runs", t.pass.Snapshot())
	ms.Histogram("gveleiden_run_duration_seconds",
		"whole-run wall times", t.run.Snapshot())
	ms.Histogram("gveleiden_pass_delta_q",
		"per-pass modularity gain from local moving", t.deltaQ.Snapshot())
	ms.Histogram("gveleiden_pool_region_seconds",
		"parallel region latencies (pooled and spawned paths)",
		t.region.Snapshot())
	ms.Counter("gveleiden_telemetry_runs_total", "runs recorded", float64(t.runs.Load()))
	ms.Counter("gveleiden_telemetry_passes_total", "passes observed", float64(t.passes.Load()))
	ms.Counter("gveleiden_telemetry_iterations_total", "local-moving iterations observed", float64(t.iterations.Load()))
	ms.Counter("gveleiden_telemetry_moves_total", "local moves observed", float64(t.moves.Load()))
}
