package core

import (
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/observe"
	"gveleiden/internal/parallel"
)

// nullObserver consumes events without storing them — isolates the
// event-construction and call cost from any sink cost.
func nullObserver(Event) {}

var benchGraph *graph.CSR

func observeBenchGraph() *graph.CSR {
	if benchGraph == nil {
		benchGraph, _ = gen.WebGraph(20000, 16, 42)
	}
	return benchGraph
}

// BenchmarkLeidenNilObserver is the baseline: Observer nil, so every
// event site takes its no-op fast path. Compare
// against BenchmarkLeidenObserved / BenchmarkLeidenTraced to verify the
// nil path adds no measurable overhead versus pre-instrumentation code.
func BenchmarkLeidenNilObserver(b *testing.B) {
	g := observeBenchGraph()
	opt := testOpts(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Leiden(g, opt)
	}
}

// BenchmarkLeidenObserved runs with an active (but sink-free) Observer.
func BenchmarkLeidenObserved(b *testing.B) {
	g := observeBenchGraph()
	opt := testOpts(4)
	opt.Observer = nullObserver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Leiden(g, opt)
	}
}

// BenchmarkLeidenTraced runs with a TraceObserver collecting span events.
func BenchmarkLeidenTraced(b *testing.B) {
	g := observeBenchGraph()
	opt := testOpts(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Observer = TraceObserver(observe.NewTracer())
		Leiden(g, opt)
	}
}

// BenchmarkLeidenTelemetered runs with the full continuous-telemetry
// wiring: a Telemetry observer feeding phase histograms plus the pool
// region-latency histogram. Compare against BenchmarkLeidenNilObserver
// to measure the telemetry-on overhead (EXPERIMENTS.md records it
// within run-to-run noise).
func BenchmarkLeidenTelemetered(b *testing.B) {
	g := observeBenchGraph()
	tel := observe.NewTelemetry(64)
	pool := parallel.NewPool(4)
	defer pool.Close()
	pool.SetRegionLatency(tel.Region())
	opt := testOpts(4)
	opt.Pool = pool
	opt.Observer = TelemetryObserver(tel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Leiden(g, opt)
		tel.RecordRun(observe.RunRecord{
			Algorithm:   "leiden",
			WallSeconds: res.Stats.Total.Seconds(),
			Passes:      res.Passes,
			Phases:      res.Stats.PhaseSeconds(),
		})
	}
}
