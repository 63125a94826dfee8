package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/observe"
	"gveleiden/internal/parallel"
)

// recorder captures every event a run emits. PassEnd stats are copied
// on arrival, as the Event contract asks of anything kept.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) observe(e Event) {
	if e.Stats != nil {
		ps := *e.Stats
		e.Stats = &ps
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// of returns the recorded events of kind k.
func (r *recorder) of(k EventKind) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// checkEventStream verifies the event-stream contract on one run:
// every begin has a matching end, events nest run ⊃ pass ⊃ phase ⊃
// iteration (a level snapshot sits directly in its pass), the PassEnd
// payloads equal res.Stats.Passes element by element, and each pass
// that ran an aggregate phase emitted exactly one LevelBuilt. It
// returns the number of level events.
func checkEventStream(t *testing.T, evs []Event, res *Result) int {
	t.Helper()
	parent := map[EventKind]EventKind{
		PassBegin: RunBegin, PhaseBegin: PassBegin, IterBegin: PhaseBegin, LevelBuilt: PassBegin,
	}
	opens := map[EventKind]EventKind{
		RunEnd: RunBegin, PassEnd: PassBegin, PhaseEnd: PhaseBegin, IterEnd: IterBegin,
	}
	var open []Event
	var passes []PassStats
	var levels, aggPhases, levelsTotal int
	for i, e := range evs {
		var top *Event
		if len(open) > 0 {
			top = &open[len(open)-1]
		}
		switch e.Kind {
		case RunBegin:
			if top != nil {
				t.Fatalf("event %d: run begins inside kind %d", i, top.Kind)
			}
			open = append(open, e)
		case PassBegin, PhaseBegin, IterBegin, LevelBuilt:
			if top == nil || top.Kind != parent[e.Kind] {
				t.Fatalf("event %d (kind %d) is not nested in kind %d", i, e.Kind, parent[e.Kind])
			}
			if e.Kind == IterBegin && top.Phase != "move" {
				t.Fatalf("event %d: iteration inside phase %q", i, top.Phase)
			}
			if e.Kind != LevelBuilt {
				open = append(open, e)
				continue
			}
			levels++
			if e.Pass != top.Pass || e.Graph != top.Graph {
				t.Errorf("event %d: level of pass %d inside pass %d, or on another graph", i, e.Pass, top.Pass)
			}
		default:
			if top == nil || top.Kind != opens[e.Kind] {
				t.Fatalf("event %d (kind %d) closes nothing open", i, e.Kind)
			}
			if top.Algorithm != e.Algorithm || top.Pass != e.Pass || top.Phase != e.Phase || top.Iteration != e.Iteration {
				t.Fatalf("event %d closes %+v with %+v", i, *top, e)
			}
			open = open[:len(open)-1]
			switch {
			case e.Kind == PhaseEnd && e.Phase == "aggregate":
				aggPhases++
			case e.Kind == PassEnd:
				passes = append(passes, *e.Stats)
				if levels != aggPhases {
					t.Errorf("pass %d: %d level events for %d aggregate phases", e.Pass, levels, aggPhases)
				}
				if levels > 0 && e.Stats.AggOccupancy <= 0 {
					t.Errorf("pass %d built a level but records no aggregation", e.Pass)
				}
				levelsTotal += levels
				levels, aggPhases = 0, 0
			}
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d events never closed, outermost kind %d", len(open), open[0].Kind)
	}
	if !reflect.DeepEqual(passes, res.Stats.Passes) {
		t.Errorf("PassEnd payloads differ from Result.Stats.Passes:\n%+v\n%+v", passes, res.Stats.Passes)
	}
	return levelsTotal
}

// TestObserverEventsMatchStats: one recording observer over each entry
// point and mode sees a well-formed event stream whose pass payloads
// are the result's stats, and the iteration events roll up into the
// pass counters.
func TestObserverEventsMatchStats(t *testing.T) {
	g, _ := gen.WebGraph(3000, 14, 1)
	old, gNew, delta := evolvedPair(3, 40, 30)
	prev := Leiden(old, testOpts(4)).Membership
	cases := []struct {
		name, alg string
		run       func(Options) *Result
		final     bool // the last pass is the final-refine pass
	}{
		{"leiden", "leiden", func(o Options) *Result { return Leiden(g, o) }, false},
		{"louvain", "louvain", func(o Options) *Result { return Louvain(g, o) }, false},
		{"final-refine", "leiden", func(o Options) *Result { o.FinalRefine = true; return Leiden(g, o) }, true},
		{"deterministic", "leiden", func(o Options) *Result { o.Deterministic = true; return Leiden(g, o) }, false},
		{"dynamic", "leiden", func(o Options) *Result {
			return LeidenDynamic(gNew, prev, delta, DynamicFrontier, o)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recorder{}
			opt := testOpts(4)
			opt.Observer = rec.observe
			res := tc.run(opt)

			if levels := checkEventStream(t, rec.events, res); levels == 0 {
				t.Error("no level events: the run never aggregated")
			}
			if runs := rec.of(RunBegin); len(runs) != 1 || runs[0].Algorithm != tc.alg {
				t.Errorf("run events %+v, want one %q run", runs, tc.alg)
			}
			var iterSum int
			for i, e := range rec.of(PassEnd) {
				want := tc.alg
				if tc.final && i == res.Passes-1 {
					want = "final-refine"
				}
				if e.Algorithm != want || e.Pass != i {
					t.Errorf("pass %d event mislabeled: %s pass %d, want %s", i, e.Algorithm, e.Pass, want)
				}
				ps := e.Stats
				// The per-iteration move counts must sum to the pass total.
				var fromIters int64
				for _, m := range ps.IterMoves {
					fromIters += m
				}
				if fromIters != ps.Moves {
					t.Errorf("pass %d: IterMoves sum %d != Moves %d", i, fromIters, ps.Moves)
				}
				if len(ps.IterMoves) != ps.MoveIterations {
					t.Errorf("pass %d: %d IterMoves entries for %d iterations",
						i, len(ps.IterMoves), ps.MoveIterations)
				}
				iterSum += ps.MoveIterations
			}
			iters := rec.of(IterEnd)
			if len(iters) != iterSum {
				t.Errorf("observer saw %d iteration events, stats says %d iterations", len(iters), iterSum)
			}
			for _, e := range iters {
				if e.Iter.Scanned < e.Iter.Moves {
					t.Errorf("iteration event scanned %d < moves %d", e.Iter.Scanned, e.Iter.Moves)
				}
			}
		})
	}
}

// TestMoveCountersCoherent: scanned+pruned accounts for every vertex
// visit, and disabling pruning zeroes the pruned counter.
func TestMoveCountersCoherent(t *testing.T) {
	g, _ := gen.SocialNetwork(2500, 14, 12, 0.35, 2)
	res := Leiden(g, testOpts(4))
	for i, ps := range res.Stats.Passes {
		// Each iteration visits |V'| vertices, each either scanned or
		// pruned (the convergence-break iteration still sweeps all).
		want := int64(ps.MoveIterations) * int64(ps.Vertices)
		if got := ps.Scanned + ps.Pruned; got != want {
			t.Errorf("pass %d: scanned %d + pruned %d = %d, want iters×|V'| = %d",
				i, ps.Scanned, ps.Pruned, got, want)
		}
		if ps.MoveIterations > 1 && ps.Pruned == 0 && ps.Vertices > 100 {
			t.Errorf("pass %d: pruning never skipped a vertex in %d iterations",
				i, ps.MoveIterations)
		}
	}

	opt := testOpts(4)
	opt.DisablePruning = true
	res = Leiden(g, opt)
	for i, ps := range res.Stats.Passes {
		if ps.Pruned != 0 {
			t.Errorf("pass %d: pruning disabled but Pruned = %d", i, ps.Pruned)
		}
		if ps.Scanned != int64(ps.MoveIterations)*int64(ps.Vertices) {
			t.Errorf("pass %d: unpruned scan %d != iters×|V'|", i, ps.Scanned)
		}
	}
}

// TestAggOccupancyBounds: every aggregating pass reports an occupancy
// in (0, 1] — arcs written never exceed the reserved slots.
func TestAggOccupancyBounds(t *testing.T) {
	g, _ := gen.WebGraph(3000, 14, 5)
	res := Leiden(g, testOpts(4))
	sawAgg := false
	for i, ps := range res.Stats.Passes {
		if ps.Aggregate == 0 && ps.AggOccupancy == 0 {
			continue
		}
		sawAgg = true
		if ps.AggOccupancy <= 0 || ps.AggOccupancy > 1+1e-9 {
			t.Errorf("pass %d: occupancy %v out of (0,1]", i, ps.AggOccupancy)
		}
	}
	if !sawAgg {
		t.Skip("run converged before aggregating — no occupancy to check")
	}
}

// TestTracedRunProducesValidNestedTrace: every entry point, traced,
// emits a parseable Chrome trace with exactly one run span, which
// contains the pass spans, which contain the phase spans.
func TestTracedRunProducesValidNestedTrace(t *testing.T) {
	g, _ := gen.WebGraph(3000, 14, 1)
	old, gNew, delta := evolvedPair(3, 40, 30)
	prev := Leiden(old, testOpts(4)).Membership
	entries := []struct {
		name, span string
		run        func(Options) *Result
	}{
		{"Leiden", "leiden", func(o Options) *Result { return Leiden(g, o) }},
		{"LeidenHierarchy", "leiden", func(o Options) *Result { res, _ := LeidenHierarchy(g, o); return res }},
		{"LeidenDynamic", "leiden", func(o Options) *Result {
			return LeidenDynamic(gNew, prev, delta, DynamicFrontier, o)
		}},
		{"LeidenDynamicHierarchy", "leiden", func(o Options) *Result {
			res, _ := LeidenDynamicHierarchy(gNew, prev, delta, DynamicFrontier, o)
			return res
		}},
		{"Louvain", "louvain", func(o Options) *Result { return Louvain(g, o) }},
	}
	for _, tc := range entries {
		t.Run(tc.name, func(t *testing.T) {
			tr := observe.NewTracer()
			opt := testOpts(4)
			opt.Observer = TraceObserver(tr)
			res := tc.run(opt)

			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatal("trace is not valid JSON")
			}
			evs := tr.Events()
			counts := map[string]int{}
			var run observe.Event
			for _, e := range evs {
				counts[e.Name]++
				if e.Name == tc.span {
					run = e
				}
			}
			if counts[tc.span] != 1 {
				t.Fatalf("%d %q run spans, want 1", counts[tc.span], tc.span)
			}
			for _, e := range evs {
				// Every span nests inside the run span.
				if e.Name != tc.span && (e.Ts < run.Ts-1 || e.Ts+e.Dur > run.Ts+run.Dur+1) {
					t.Errorf("event %q [%v,%v] escapes run span [%v,%v]",
						e.Name, e.Ts, e.Ts+e.Dur, run.Ts, run.Ts+run.Dur)
				}
			}
			if counts[tc.span+".pass"] != res.Passes {
				t.Errorf("%d pass spans for %d passes", counts[tc.span+".pass"], res.Passes)
			}
			if counts["move"] != res.Passes {
				t.Errorf("%d move spans for %d passes", counts["move"], res.Passes)
			}
			if counts["move.iter"] != res.Stats.TotalIterations() {
				t.Errorf("%d iteration spans for %d iterations",
					counts["move.iter"], res.Stats.TotalIterations())
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Ts < evs[i-1].Ts {
					t.Fatalf("trace timestamps not monotonic at %d", i)
				}
			}
		})
	}
}

// TestObservedRunMatchesBaseline: observing and tracing must not
// change the partition (same options, same seed → same result).
func TestObservedRunMatchesBaseline(t *testing.T) {
	g, _ := gen.SocialNetwork(2000, 12, 10, 0.3, 9)
	opt := testOpts(4)
	opt.Deterministic = true
	base := Leiden(g, opt)

	opt.Observer = MultiObserver((&recorder{}).observe, TraceObserver(observe.NewTracer()))
	observed := Leiden(g, opt)
	if base.NumCommunities != observed.NumCommunities || base.Modularity != observed.Modularity {
		t.Errorf("observation changed the result: %d/%f vs %d/%f",
			base.NumCommunities, base.Modularity,
			observed.NumCommunities, observed.Modularity)
	}
	for i := range base.Membership {
		if base.Membership[i] != observed.Membership[i] {
			t.Fatalf("membership diverged at vertex %d", i)
		}
	}
}

// TestMetricsAssembly: the exported metric set contains the headline
// series with sane values.
func TestMetricsAssembly(t *testing.T) {
	g, _ := gen.WebGraph(2000, 12, 3)
	pool := parallel.NewPool(4)
	defer pool.Close()
	opt := testOpts(4)
	opt.Pool = pool
	res := Leiden(g, opt)

	ms := observe.NewMetricSet()
	RunInfoMetrics(ms, g.NumVertices(), g.NumArcs(), 4, res)
	res.Stats.AddMetrics(ms)
	AddPoolMetrics(ms, pool.Counters())

	byName := map[string]float64{}
	for _, m := range ms.Metrics() {
		if len(m.Labels) == 0 {
			byName[m.Name] = m.Value
		}
	}
	if byName["gveleiden_passes_total"] != float64(res.Passes) {
		t.Errorf("passes metric %v != %d", byName["gveleiden_passes_total"], res.Passes)
	}
	if byName["gveleiden_pool_regions_total"] <= 0 {
		t.Error("pool regions metric missing or zero")
	}
	if byName["gveleiden_pool_items_total"] <= 0 {
		t.Error("pool items metric missing or zero")
	}
	var buf bytes.Buffer
	if err := ms.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty Prometheus output")
	}
}

// TestLouvainObserved: the Louvain driver emits events too.
func TestLouvainObserved(t *testing.T) {
	g, _ := gen.WebGraph(2000, 12, 7)
	rec := &recorder{}
	opt := testOpts(4)
	opt.Observer = rec.observe
	res := Louvain(g, opt)
	passes := rec.of(PassEnd)
	if len(passes) != res.Passes {
		t.Fatalf("observer saw %d passes, result says %d", len(passes), res.Passes)
	}
	for _, e := range passes {
		if e.Algorithm != "louvain" {
			t.Errorf("pass event algorithm %q, want louvain", e.Algorithm)
		}
	}
}

// TestFinalRefineObserved: the extra final-refinement pass is reported
// with its own algorithm label.
func TestFinalRefineObserved(t *testing.T) {
	g, _ := gen.WebGraph(2000, 12, 11)
	rec := &recorder{}
	opt := testOpts(4)
	opt.FinalRefine = true
	opt.Observer = rec.observe
	Leiden(g, opt)
	passes := rec.of(PassEnd)
	if len(passes) == 0 || passes[len(passes)-1].Algorithm != "final-refine" {
		t.Fatalf("last pass event should be final-refine, got %+v", passes)
	}
}

// TestTelemetryWiredRun: a Telemetry observer plus a pool region
// histogram accumulate across repeated runs — the -serve/-repeat
// continuous path, in-process.
func TestTelemetryWiredRun(t *testing.T) {
	g, _ := gen.WebGraph(2500, 12, 3)
	pool := parallel.NewPool(4)
	defer pool.Close()
	tel := observe.NewTelemetry(8)
	pool.SetRegionLatency(tel.Region())
	opt := testOpts(4)
	opt.Pool = pool
	opt.Observer = TelemetryObserver(tel)
	opt.Deterministic = true // exercises the coloring sub-phase

	const runs = 3
	var passes int
	for i := 0; i < runs; i++ {
		res := Leiden(g, opt)
		passes += res.Passes
		tel.RecordRun(observe.RunRecord{
			Algorithm:   "leiden",
			WallSeconds: res.Stats.Total.Seconds(),
			Vertices:    g.NumVertices(),
			Arcs:        g.NumArcs(),
			Passes:      res.Passes,
			Modularity:  res.Modularity,
			Phases:      res.Stats.PhaseSeconds(),
		})
	}
	if tel.Runs() != runs {
		t.Fatalf("telemetry recorded %d runs, want %d", tel.Runs(), runs)
	}
	if got := len(tel.Flight().Records()); got != runs {
		t.Fatalf("flight recorder holds %d records, want %d", got, runs)
	}
	if tel.Region().Snapshot().Count == 0 {
		t.Fatal("pool region histogram saw no regions")
	}

	ms := observe.NewMetricSet()
	tel.AddTo(ms)
	var found bool
	for _, m := range ms.Metrics() {
		if m.Name == "gveleiden_phase_duration_seconds" && len(m.Labels) == 1 &&
			m.Labels[0].Value == "move" {
			found = true
			if m.Count != uint64(passes) {
				t.Errorf("move histogram count %d, want %d observed passes", m.Count, passes)
			}
		}
		if m.Name == "gveleiden_phase_duration_seconds" && len(m.Labels) == 1 &&
			m.Labels[0].Value == "color" && m.Count == 0 {
			t.Error("deterministic run recorded no coloring durations")
		}
	}
	if !found {
		t.Fatal("phase histogram missing from telemetry exposition")
	}
}

// TestPassStatsPhaseAccounting: the six-way totals cover the pass
// duration exactly, and the color/split sub-phases are populated where
// the options exercise them.
func TestPassStatsPhaseAccounting(t *testing.T) {
	g, _ := gen.SocialNetwork(2500, 14, 12, 0.35, 4)
	opt := testOpts(4)
	opt.Deterministic = true
	res := Leiden(g, opt)
	for i, ps := range res.Stats.Passes {
		if got := ps.Move + ps.Refine + ps.Aggregate + ps.Color + ps.Split + ps.Other; got != ps.Duration() {
			t.Errorf("pass %d: phases sum %v != Duration %v", i, got, ps.Duration())
		}
		if ps.Color <= 0 {
			t.Errorf("pass %d: deterministic run has no coloring time", i)
		}
	}
	mv, rf, ag, co, sp, ot := res.Stats.PhaseTotals()
	if co <= 0 {
		t.Error("PhaseTotals lost the coloring time")
	}
	secs := res.Stats.PhaseSeconds()
	if secs.Color != co.Seconds() || secs.Move != mv.Seconds() ||
		secs.Refine != rf.Seconds() || secs.Aggregate != ag.Seconds() ||
		secs.Split != sp.Seconds() || secs.Other != ot.Seconds() {
		t.Errorf("PhaseSeconds disagrees with PhaseTotals: %+v", secs)
	}
	// The four-way split folds color+split into other and still sums
	// to 1.
	m4, r4, a4, o4 := res.Stats.PhaseSplit()
	if sum := m4 + r4 + a4 + o4; sum < 0.999 || sum > 1.001 {
		t.Errorf("PhaseSplit sums to %v, want 1", sum)
	}
	if wantOther := float64(co+sp+ot) / float64(mv+rf+ag+co+sp+ot); o4 < wantOther*0.999 || o4 > wantOther*1.001 {
		t.Errorf("PhaseSplit other = %v, want %v (color+split folded in)", o4, wantOther)
	}
}

// TestProgressObserver: the -v printer writes its pass line and, when
// asked, its iteration line.
func TestProgressObserver(t *testing.T) {
	var buf bytes.Buffer
	p := ProgressObserver(&buf, true)
	p(Event{Kind: IterEnd, Pass: 0, Iteration: 1, Iter: IterStats{Scanned: 10, Moves: 4, DeltaQ: 0.1}})
	p(Event{Kind: PassEnd, Algorithm: "leiden", Pass: 0, Stats: &PassStats{Vertices: 100, MoveIterations: 2}})
	out := buf.String()
	if !strings.Contains(out, "pass 0 iter 1") || !strings.Contains(out, "leiden pass 0") {
		t.Errorf("unexpected progress output:\n%s", out)
	}

	// Concurrent runs sharing the printer write whole lines.
	buf.Reset()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p(Event{Kind: PassEnd, Algorithm: "leiden", Pass: i, Stats: &PassStats{}})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("%d lines from 200 concurrent pass events", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "leiden pass ") || !strings.HasSuffix(l, ")") {
			t.Fatalf("torn progress line %q", l)
		}
	}
}

// TestMultiObserver: the fan-out drops nil observers, returns nil when
// none is left, and delivers every event to each live one once.
func TestMultiObserver(t *testing.T) {
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver of nils should be nil")
	}
	var a, b recorder
	m := MultiObserver(a.observe, nil, b.observe)
	m(Event{Kind: PassEnd, Stats: &PassStats{}})
	m(Event{Kind: IterEnd})
	m(Event{Kind: IterEnd})
	for _, r := range []*recorder{&a, &b} {
		if len(r.of(PassEnd)) != 1 || len(r.of(IterEnd)) != 2 {
			t.Errorf("fan-out mismatch: %+v", r.events)
		}
	}
	var c recorder
	MultiObserver(nil, c.observe)(Event{Kind: RunEnd})
	if len(c.events) != 1 {
		t.Errorf("single observer saw %d events, want 1", len(c.events))
	}
}
