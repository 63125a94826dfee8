package core

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"gveleiden/internal/observe"
	"gveleiden/internal/parallel"
)

// TraceObserver records a run's events as spans on t: one for the run,
// each pass, each phase and each local-moving iteration, so t.Write
// yields a Chrome-trace/Perfetto profile of the run. It holds the open
// spans of one run at a time; concurrent runs each need their own. A nil
// t yields a nil Observer.
func TraceObserver(t *observe.Tracer) Observer {
	if t == nil {
		return nil
	}
	var open []observe.Span
	begin := func(sp observe.Span) { open = append(open, sp) }
	end := func(args map[string]any) {
		sp := open[len(open)-1]
		open = open[:len(open)-1]
		sp.EndArgs(args)
	}
	return func(e Event) {
		switch e.Kind {
		case RunBegin:
			begin(t.BeginArgs(e.Algorithm, 0, map[string]any{
				"vertices": e.Graph.NumVertices(), "arcs": e.Graph.NumArcs(), "threads": e.Threads,
			}))
		case PassBegin:
			begin(t.BeginArgs(e.Algorithm+".pass", 0, map[string]any{
				"pass": e.Pass, "vertices": e.Graph.NumVertices(), "arcs": e.Graph.NumArcs(),
			}))
		case PhaseBegin:
			begin(t.Begin(e.Phase, 0))
		case IterBegin:
			begin(t.Begin("move.iter", 0))
		case RunEnd, PhaseEnd:
			end(nil)
		case PassEnd:
			p := e.Stats
			end(map[string]any{
				"iters": p.MoveIterations, "moves": p.Moves,
				"refineMoves": p.RefineMoves, "communities": p.Communities,
			})
		case IterEnd:
			c := e.Iter
			end(map[string]any{
				"scanned": c.Scanned, "pruned": c.Pruned, "flat": c.FlatScans, "moves": c.Moves, "dq": c.DeltaQ,
			})
		}
	}
}

// ProgressObserver prints one line per pass to w — and, with iterations
// set, one per local-moving iteration — the engine behind the CLI's -v
// flag. Lines of concurrent runs sharing it do not interleave.
func ProgressObserver(w io.Writer, iterations bool) Observer {
	var mu sync.Mutex
	return func(e Event) {
		switch {
		case e.Kind == IterEnd && iterations:
			c := e.Iter
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(w, "  pass %d iter %d: scanned=%d pruned=%d moves=%d dQ=%.3e\n",
				e.Pass, e.Iteration, c.Scanned, c.Pruned, c.Moves, c.DeltaQ)
		case e.Kind == PassEnd:
			p := e.Stats
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(w, "%s pass %d: |V'|=%d arcs=%d iters=%d moves=%d refineMoves=%d |Γ|=%d %s (move %s, refine %s, agg %s)\n",
				e.Algorithm, e.Pass, p.Vertices, p.Arcs, p.MoveIterations, p.Moves,
				p.RefineMoves, p.Communities, p.Duration().Round(time.Microsecond),
				p.Move.Round(time.Microsecond), p.Refine.Round(time.Microsecond),
				p.Aggregate.Round(time.Microsecond))
		}
	}
}

// LogObserver emits one structured record per pass to l — and, with
// iterations set, one per local-moving iteration — the structured
// counterpart of ProgressObserver. A nil l yields a nil Observer.
func LogObserver(l *slog.Logger, iterations bool) Observer {
	if l == nil {
		return nil
	}
	return func(e Event) {
		switch {
		case e.Kind == IterEnd && iterations:
			c := e.Iter
			l.Info("iteration",
				slog.Int("pass", e.Pass),
				slog.Int("iter", e.Iteration),
				slog.Int64("scanned", c.Scanned),
				slog.Int64("pruned", c.Pruned),
				slog.Int64("moves", c.Moves),
				slog.Float64("delta_q", c.DeltaQ),
			)
		case e.Kind == PassEnd:
			p := e.Stats
			l.Info("pass",
				slog.String("algorithm", e.Algorithm),
				slog.Int("pass", e.Pass),
				slog.Int("vertices", p.Vertices),
				slog.Int64("arcs", p.Arcs),
				slog.Int("iterations", p.MoveIterations),
				slog.Int64("moves", p.Moves),
				slog.Int64("refine_moves", p.RefineMoves),
				slog.Int("communities", p.Communities),
				slog.Float64("delta_q", p.DeltaQ),
				slog.Duration("move", p.Move),
				slog.Duration("refine", p.Refine),
				slog.Duration("aggregate", p.Aggregate),
				slog.Duration("total", p.Duration()),
			)
		}
	}
}

// TelemetryObserver feeds every pass and iteration of a run into t's
// phase, pass and ΔQ histograms and its work counters. A nil t yields a
// nil Observer.
func TelemetryObserver(t *observe.Telemetry) Observer {
	if t == nil {
		return nil
	}
	return func(e Event) {
		switch e.Kind {
		case IterEnd:
			t.ObserveIteration(e.Iter.Moves)
		case PassEnd:
			p := e.Stats
			t.ObservePass([observe.NumPhases]time.Duration{
				observe.PhaseMove:      p.Move,
				observe.PhaseRefine:    p.Refine,
				observe.PhaseAggregate: p.Aggregate,
				observe.PhaseColor:     p.Color,
				observe.PhaseSplit:     p.Split,
				observe.PhaseOther:     p.Other,
			}, p.DeltaQ)
		}
	}
}

// AddMetrics appends the run's statistics to ms in a stable layout:
// run totals, phase-split fractions, and per-pass series labeled by
// pass index — the data behind the CLIs' -metrics flag.
func (s Stats) AddMetrics(ms *observe.MetricSet) {
	ms.Gauge("gveleiden_run_seconds", "total wall time of the run", s.Total.Seconds())
	ms.Counter("gveleiden_passes_total", "passes performed", float64(len(s.Passes)))
	ms.Counter("gveleiden_move_iterations_total", "local-moving iterations across passes", float64(s.TotalIterations()))
	ms.Counter("gveleiden_vertices_scanned_total", "vertices examined by local moving", float64(s.TotalScanned()))
	ms.Counter("gveleiden_vertices_pruned_total", "vertices skipped by flag-based pruning", float64(s.TotalPruned()))
	ms.Counter("gveleiden_flat_scans_total", "scanned vertices served by the flat-array scan", float64(s.TotalFlatScans()))
	ms.Counter("gveleiden_moves_total", "local moves applied", float64(s.TotalMoves()))
	ms.Gauge("gveleiden_pruning_hit_rate", "fraction of examinations skipped by flag-based pruning", s.PruningHitRate())
	ms.Gauge("gveleiden_first_pass_fraction", "share of runtime in the first pass", s.FirstPassFraction())

	mv, rf, ag, ot := s.PhaseSplit()
	const splitHelp = "fraction of phase-attributed runtime"
	ms.Gauge("gveleiden_phase_fraction", splitHelp, mv, observe.L("phase", "move"))
	ms.Gauge("gveleiden_phase_fraction", splitHelp, rf, observe.L("phase", "refine"))
	ms.Gauge("gveleiden_phase_fraction", splitHelp, ag, observe.L("phase", "aggregate"))
	ms.Gauge("gveleiden_phase_fraction", splitHelp, ot, observe.L("phase", "other"))

	const passHelp = "wall time per pass and phase"
	for i, p := range s.Passes {
		pl := observe.L("pass", strconv.Itoa(i))
		ms.Gauge("gveleiden_pass_seconds", passHelp, p.Move.Seconds(), pl, observe.L("phase", "move"))
		ms.Gauge("gveleiden_pass_seconds", passHelp, p.Refine.Seconds(), pl, observe.L("phase", "refine"))
		ms.Gauge("gveleiden_pass_seconds", passHelp, p.Aggregate.Seconds(), pl, observe.L("phase", "aggregate"))
		ms.Gauge("gveleiden_pass_seconds", passHelp, p.Other.Seconds(), pl, observe.L("phase", "other"))
		if p.Color > 0 {
			ms.Gauge("gveleiden_pass_seconds", passHelp, p.Color.Seconds(), pl, observe.L("phase", "color"))
		}
		if p.Split > 0 {
			ms.Gauge("gveleiden_pass_seconds", passHelp, p.Split.Seconds(), pl, observe.L("phase", "split"))
		}
		ms.Gauge("gveleiden_pass_vertices", "graph size per pass", float64(p.Vertices), pl)
		ms.Gauge("gveleiden_pass_communities", "communities after refinement per pass", float64(p.Communities), pl)
		ms.Gauge("gveleiden_pass_refine_moves", "refinement moves per pass", float64(p.RefineMoves), pl)
		if p.AggOccupancy > 0 {
			ms.Gauge("gveleiden_pass_agg_occupancy", "aggregation hashtable slot occupancy per pass", p.AggOccupancy, pl)
		}
	}
}

// PhaseSeconds returns the run's six-way phase totals in seconds, in
// the shape the flight recorder stores.
func (s Stats) PhaseSeconds() observe.PhaseSeconds {
	mv, rf, ag, co, sp, ot := s.PhaseTotals()
	return observe.PhaseSeconds{
		Move:      mv.Seconds(),
		Refine:    rf.Seconds(),
		Aggregate: ag.Seconds(),
		Color:     co.Seconds(),
		Split:     sp.Seconds(),
		Other:     ot.Seconds(),
	}
}

// AddPoolMetrics appends a parallel.Pool counter snapshot to ms: the
// scheduler-behavior series (chunk claims, steals, park/unpark cycles,
// fallback regions) that make the work-stealing runtime observable.
func AddPoolMetrics(ms *observe.MetricSet, c parallel.CounterSnapshot) {
	add := func(name, help string, v int64) {
		ms.Counter("gveleiden_pool_"+name, help, float64(v))
	}
	add("regions_total", "parallel regions scheduled on the persistent workers", c.Regions)
	add("inline_regions_total", "regions run inline on the submitter", c.InlineRegions)
	add("spawn_regions_total", "regions that fell back to spawn-mode execution", c.SpawnRegions)
	add("wakes_total", "worker park/unpark cycles", c.Wakes)
	add("chunks_total", "guided chunks claimed by range owners", c.Chunks)
	add("items_total", "loop iterations executed on the pool", c.Items)
	add("steal_attempts_total", "steal sweeps by participants out of own work", c.StealAttempts)
	add("steals_total", "successful steals of half a victim's range", c.Steals)
	add("items_stolen_total", "loop iterations transferred by steals", c.ItemsStolen)
}

// RunInfoMetrics appends run-identification gauges (graph size, thread
// count, result quality) shared by the CLI exporters.
func RunInfoMetrics(ms *observe.MetricSet, vertices int, arcs int64, threads int, res *Result) {
	ms.Gauge("gveleiden_graph_vertices", "vertices of the input graph", float64(vertices))
	ms.Gauge("gveleiden_graph_arcs", "stored arcs of the input graph", float64(arcs))
	ms.Gauge("gveleiden_threads", "worker threads used", float64(threads))
	if res != nil {
		ms.Gauge("gveleiden_communities", "communities detected", float64(res.NumCommunities))
		ms.Gauge("gveleiden_modularity", "modularity of the result", res.Modularity)
	}
}
