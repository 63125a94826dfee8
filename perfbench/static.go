package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
)

// Graph sizes at scale 1. A solve of either graph allocates about
// 1.4 MB, so its working set stays in one core's private L2 cache: the
// shared L3 of a cloud host comes and goes with the neighbours' load,
// and a solve that needs it doubles in time when it goes.
const (
	staticSocialVertices = 4_000
	staticRoadVertices   = 8_000
)

// minSolves is the least number of timed solves a static run makes,
// however short its window.
const minSolves = 3

// staticGraphs is how many graphs a static run generates from its
// seed. The work of a solve moves by about 10% from one graph of a
// class to the next (it takes a small whole number of iterations to
// converge), so a run spreads its solves over several graphs and the
// median over them does not depend on one draw. blockSolves solves in
// a row go to one graph, so the cache-cold first one is a small share.
const (
	staticGraphs = 8
	blockSolves  = 5
)

func runStaticSocial(cfg config) (*runReport, error) {
	return runStatic(cfg, "social", func(seed uint64) (graph.EdgeStream, int) {
		return socialBlocks(scaled(staticSocialVertices, cfg.scale), 16, seed)
	})
}

func runStaticRoad(cfg config) (*runReport, error) {
	return runStatic(cfg, "road", func(seed uint64) (graph.EdgeStream, int) {
		stream, n, _ := gen.StreamedRoad(scaled(staticRoadVertices, cfg.scale), seed)
		return stream, n
	})
}

// loadGraph opens the container and returns its verified graph,
// timing both halves of set-up under their own spans, and the CPU time
// of the whole.
func loadGraph(t *tracer, path string) (f *gvecsr.File, g *graph.CSR, open, verify, cpu float64, err error) {
	c0 := cpuSeconds()
	open = t.time("gvecsr.open", 0, 0, func() { f, err = gvecsr.Open(path) })
	if err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("open %s: %w", path, err)
	}
	verify = t.time("gvecsr.verify", 0, 0, func() { g, err = f.Graph() })
	if err != nil {
		f.Close()
		return nil, nil, 0, 0, 0, fmt.Errorf("verify %s: %w", path, err)
	}
	return f, g, open, verify, cpuSeconds() - c0, nil
}

// checkOutput applies the checks every partition the program hands a
// user must pass: a valid dense labelling, no internally disconnected
// community, and a reported modularity equal to the one recomputed
// from the output.
func checkOutput(g *graph.CSR, res *core.Result, threads int) error {
	r := &oracle.Report{}
	oracle.CheckPartition(r, g, res.Membership, true)
	oracle.CheckConnected(r, g, res.Membership, threads)
	if err := r.Err(); err != nil {
		return err
	}
	if q := quality.Modularity(g, res.Membership); math.Abs(q-res.Modularity) > 1e-9 {
		return fmt.Errorf("reported modularity %.12f, recomputed %.12f", res.Modularity, q)
	}
	return nil
}

// solveSample is what one timed solve contributes.
type solveSample struct {
	seconds, cpu, allocMB float64
	input                 *staticInput
	res                   *core.Result
	pool                  parallel.CounterSnapshot
}

// solve runs one cold Leiden on a clean heap and pool counters and
// checks its output. The returned error is an output violation.
func solve(t *tracer, in *staticInput, opt core.Options) (solveSample, error) {
	g := in.g
	runtime.GC()
	opt.Pool.ResetCounters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res *core.Result
	c0 := cpuSeconds()
	d := t.time("core.Leiden", 0, 0, func() { res = core.Leiden(g, opt) })
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	s := solveSample{
		seconds: d,
		cpu:     cpu,
		input:   in,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		res:     res,
		pool:    opt.Pool.Counters(),
	}
	return s, checkOutput(g, res, opt.Threads)
}

// staticInput is one generated graph of a static run, loaded.
type staticInput struct {
	path string
	g    *graph.CSR
	q0   float64 // modularity of the singleton partition
}

func runStatic(cfg config, class string, input func(seed uint64) (graph.EdgeStream, int)) (*runReport, error) {
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	var setup, opens, verifies []float64
	inputs := make([]*staticInput, staticGraphs)
	for i := range inputs {
		stream, n := input(cfg.seed*staticGraphs + uint64(i))
		path, err := generate(cfg, fmt.Sprintf("%s%d", class, i), n, stream)
		if err != nil {
			return nil, err
		}
		defer os.Remove(path)
		file, g, open, verify, cpu, err := loadGraph(t, path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		setup, opens, verifies = append(setup, cpu), append(opens, open), append(verifies, verify)
		inputs[i] = &staticInput{path: path, g: g}
	}
	// reload repeats an input's set-up on a second handle, leaving the
	// one the solves use open. setup_s is the median CPU time of the
	// first load of each input and a reload before every timed solve.
	reload := func(in *staticInput) error {
		f, _, open, verify, cpu, err := loadGraph(t, in.path)
		if err != nil {
			return err
		}
		setup, opens, verifies = append(setup, cpu), append(opens, open), append(verifies, verify)
		return f.Close()
	}

	pool := parallel.NewPool(cfg.threads)
	defer pool.Close()
	opt := core.DefaultOptions()
	opt.Threads = cfg.threads
	opt.Pool = pool

	v := values{}
	rep := &runReport{vals: v, trace: t}
	record := func(err error) {
		rep.attempted++
		if err != nil {
			rep.failed++
			logf(cfg, "%s: output check failed: %v", cfg.workload, err)
		}
	}
	// The warm-up solves fault in the pool's workers and the mapped
	// pages; they are checked but not timed.
	for _, in := range inputs {
		_, err := solve(nil, in, opt)
		record(err)
	}
	var samples []solveSample
	deadline := time.Now().Add(cfg.seconds)
	for k := 0; len(samples) < minSolves || time.Now().Before(deadline); k++ {
		in := inputs[k/blockSolves%len(inputs)]
		// Set-up takes well under a millisecond, so a moment of
		// interference from the machine can double it; repeating it
		// before every solve samples the whole window instead of one
		// moment. The last solve's garbage is collected first, so
		// set-up is not charged for it.
		runtime.GC()
		if err := reload(in); err != nil {
			return nil, err
		}
		s, err := solve(t, in, opt)
		record(err)
		samples = append(samples, s)
	}

	v["setup_s"] = median(setup)
	v["gvecsr.open_s"] = median(opens)
	v["gvecsr.verify_s"] = median(verifies)

	col := func(f func(s solveSample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	cpus := col(func(s solveSample) float64 { return s.cpu })
	v["cpu_per_op_ms"] = median(cpus) * 1e3
	v["modularity"] = median(col(func(s solveSample) float64 { return s.res.Modularity }))
	v["alloc_mb"] = median(col(func(s solveSample) float64 { return s.allocMB }))
	secs := col(func(s solveSample) float64 { return s.seconds })
	solveS := median(secs)
	v["core.solve_s"] = solveS
	v["core.edges_per_s"] = median(col(func(s solveSample) float64 {
		return float64(s.input.g.NumUndirectedEdges()) / s.seconds
	}))
	v["success_share"] = 1 - float64(rep.failed)/float64(rep.attempted)

	var arcs int64
	for _, in := range inputs {
		arcs += in.g.NumArcs()
	}
	rep.describe = map[string]any{
		"class":      class,
		"graphs":     len(inputs),
		"vertices":   inputs[0].g.NumVertices(),
		"arcs_mean":  arcs / int64(len(inputs)),
		"solves":     len(samples),
		"solve_iqr":  spread(secs),
		"cpu_iqr":    spread(cpus),
		"setup_reps": len(setup),
	}
	if !cfg.traced {
		return rep, nil
	}

	for _, in := range inputs {
		in.q0 = quality.Modularity(in.g, identity(in.g.NumVertices()))
	}
	runs := make([]detection, len(samples))
	for i, s := range samples {
		runs[i] = detection{s.res, s.pool, s.input.q0}
	}
	for k, x := range layerValues(runs) {
		v[k] = x
	}

	// The same solves on one thread give the speedup's base.
	pool1 := parallel.NewPool(1)
	defer pool1.Close()
	opt1 := opt
	opt1.Threads, opt1.Pool = 1, pool1
	var secs1 []float64
	for _, in := range inputs {
		s1, err := solve(t, in, opt1)
		record(err)
		secs1 = append(secs1, s1.seconds)
	}
	v["core.solve_1t_s"] = median(secs1)
	v["parallel.speedup"] = median(secs1) / solveS

	// Deterministic mode's work counters are a pure function of the
	// graph, so they repeat exactly for a seed.
	optD := opt
	optD.Deterministic = true
	sd, err := solve(t, inputs[0], optD)
	record(err)
	v["core.det.scanned"] = float64(sd.res.Stats.TotalScanned())
	v["core.det.moves"] = float64(sd.res.Stats.TotalMoves())
	v["core.det.iterations"] = float64(sd.res.Stats.TotalIterations())

	rep.spansPerOp, rep.opSeconds = 1, median(cpus)
	return rep, nil
}

// detection is one detection run as the per-layer metrics see it: its
// result, its pool's scheduler counters, and the quality it started
// from.
type detection struct {
	res  *core.Result
	pool parallel.CounterSnapshot
	q0   float64
}

// layerValues returns the internal/core and internal/parallel figures
// of a set of runs, each the median over the runs.
func layerValues(runs []detection) values {
	out := values{}
	for name, f := range map[string]func(r detection) float64{
		"core.move_s":           func(r detection) float64 { m, _, _, _, _, _ := r.res.Stats.PhaseTotals(); return m.Seconds() },
		"core.refine_s":         func(r detection) float64 { _, x, _, _, _, _ := r.res.Stats.PhaseTotals(); return x.Seconds() },
		"core.aggregate_s":      func(r detection) float64 { _, _, a, _, _, _ := r.res.Stats.PhaseTotals(); return a.Seconds() },
		"core.other_s":          func(r detection) float64 { return otherPhases(r.res.Stats).Seconds() },
		"core.passes":           func(r detection) float64 { return float64(r.res.Passes) },
		"core.iterations":       func(r detection) float64 { return float64(r.res.Stats.TotalIterations()) },
		"core.scanned":          func(r detection) float64 { return float64(r.res.Stats.TotalScanned()) },
		"core.pruned":           func(r detection) float64 { return float64(r.res.Stats.TotalPruned()) },
		"core.moves":            func(r detection) float64 { return float64(r.res.Stats.TotalMoves()) },
		"core.move_yield":       func(r detection) float64 { return ratio(r.res.Stats.TotalMoves(), r.res.Stats.TotalScanned()) },
		"core.flat_share":       func(r detection) float64 { return ratio(r.res.Stats.TotalFlatScans(), r.res.Stats.TotalScanned()) },
		"core.agg_occupancy":    func(r detection) float64 { return aggOccupancy(r.res.Stats) },
		"core.dq_gap":           func(r detection) float64 { return dqGap(r.res, r.q0) },
		"parallel.regions":      func(r detection) float64 { return float64(r.pool.Regions) },
		"parallel.chunks":       func(r detection) float64 { return float64(r.pool.Chunks) },
		"parallel.steal_yield":  func(r detection) float64 { return ratio(r.pool.Steals, r.pool.StealAttempts) },
		"parallel.stolen_share": func(r detection) float64 { return ratio(r.pool.ItemsStolen, r.pool.Items) },
	} {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		out[name] = median(xs)
	}
	return out
}

func identity(n int) []uint32 {
	m := make([]uint32, n)
	for i := range m {
		m[i] = uint32(i)
	}
	return m
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// otherPhases folds coloring and splitting into "other", the paper's
// four-way phase split.
func otherPhases(s core.Stats) time.Duration {
	_, _, _, color, split, other := s.PhaseTotals()
	return color + split + other
}

// aggOccupancy is the mean aggregation occupancy over the passes that
// aggregated.
func aggOccupancy(s core.Stats) float64 {
	var sum float64
	var n int
	for _, p := range s.Passes {
		if p.AggOccupancy > 0 {
			sum += p.AggOccupancy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// dqGap is |ΣΔQ − (Q_final − Q_initial)|: how far the run's reported
// per-pass gains are from the quality it actually reached.
func dqGap(res *core.Result, q0 float64) float64 {
	var gain float64
	for _, p := range res.Stats.Passes {
		gain += p.DeltaQ
	}
	return math.Abs(gain - (res.Quality - q0))
}
