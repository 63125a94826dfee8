package bench

import (
	"runtime"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/observe"
	"gveleiden/internal/parallel"
)

// TelemetryOverheadRecord quantifies the continuous-telemetry tax: the
// same Leiden run with the nil-Observer fast path versus the full
// wiring (Telemetry observer, pool region-latency histogram, flight
// recorder). OverheadPct is the fractional slowdown in percent;
// EXPERIMENTS.md tracks it staying within run-to-run noise.
type TelemetryOverheadRecord struct {
	Vertices      int     `json:"vertices"`
	Threads       int     `json:"threads"`
	Repeats       int     `json:"repeats"`
	BaseMs        float64 `json:"base_ms"`        // best-of, telemetry off
	TelemeteredMs float64 `json:"telemetered_ms"` // best-of, telemetry on
	OverheadPct   float64 `json:"overhead_pct"`
}

// TelemetryOverhead measures the telemetry-on vs telemetry-off delta on
// a generated web graph of n vertices, best of repeats runs each.
func TelemetryOverhead(n, repeats, threads int) TelemetryOverheadRecord {
	if repeats < 1 {
		repeats = 1
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	g, _ := gen.WebGraph(n, 20, 42)
	pool := parallel.NewPool(threads)
	defer pool.Close()
	opt := core.DefaultOptions()
	opt.Threads = threads
	opt.Pool = pool

	best := func(f func()) float64 {
		b := time.Duration(0)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			f()
			if d := time.Since(start); b == 0 || d < b {
				b = d
			}
		}
		return float64(b.Microseconds()) / 1000
	}

	base := best(func() { core.Leiden(g, opt) })

	tel := observe.NewTelemetry(observe.DefaultFlightSize)
	pool.SetRegionLatency(tel.Region())
	defer pool.SetRegionLatency(nil)
	opt.Observer = core.TelemetryObserver(tel)
	telemetered := best(func() {
		res := core.Leiden(g, opt)
		tel.RecordRun(observe.RunRecord{
			Algorithm:   "leiden",
			WallSeconds: res.Stats.Total.Seconds(),
			Vertices:    g.NumVertices(),
			Arcs:        g.NumArcs(),
			Threads:     threads,
			Passes:      res.Passes,
			Phases:      res.Stats.PhaseSeconds(),
		})
	})

	return TelemetryOverheadRecord{
		Vertices: g.NumVertices(), Threads: threads, Repeats: repeats,
		BaseMs: base, TelemeteredMs: telemetered,
		OverheadPct: (telemetered/base - 1) * 100,
	}
}
