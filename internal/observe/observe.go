// Package observe is the observability layer of the repository: a
// low-overhead, concurrency-safe tracing and metrics subsystem threaded
// through the parallel runtime, the core algorithm phases, and the
// command-line tools.
//
// It provides two layers. The per-run layer:
//
//   - Tracer — span-based tracing, serialized as Chrome trace-event JSON
//     (chrome://tracing / Perfetto compatible). core.TraceObserver opens
//     a span for a run and each of its passes, phases and local-moving
//     iterations, so a whole Leiden run can be profiled visually.
//
//   - MetricSet — a small ordered metric registry with Prometheus
//     text-format and JSON writers, used by the CLIs' -metrics flag and
//     by cmd/benchjson to export phase timings, algorithm counters, and
//     parallel.Pool scheduler counters machine-readably.
//
// And the continuous layer, for processes that outlive a single run:
//
//   - Histogram — fixed-layout log-linear latency histograms with
//     lock-free padded shards, feeding MetricSet's Prometheus histogram
//     exposition.
//
//   - Telemetry — the process-lifetime aggregator: per-phase duration
//     histograms, ΔQ and run-time distributions, work counters, and a
//     FlightRecorder ring of recent RunRecords for post-hoc debugging.
//
//   - Sampler — a runtime/metrics poller turning heap, GC, goroutine,
//     and scheduler-latency readings into gauges.
//
//   - Server — the introspection endpoint consolidating /metrics,
//     /metrics.json, /healthz, /debug/flight, /debug/vars, and
//     /debug/pprof on one gracefully-shutdownable mux.
//
// The package deliberately depends only on the standard library, so
// every other layer (internal/parallel, internal/core, the commands)
// may import it without cycles. It knows nothing of a run's structure:
// core's single Observer hook emits the run's events, and the
// subscribers in core hand plain values to the sinks here (spans to a
// Tracer, durations and counts to Telemetry).
package observe
