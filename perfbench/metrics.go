package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them
// equal): an untraced run reports every end-to-end metric, a traced
// run every per-layer one.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_per_op_ms", "ms"},
	{"modularity", "ratio"},
	{"alloc_mb", "MiB"},
	{"success_share", "fraction"},
}

var perLayer = []metricDef{
	{"gvecsr.open_s", "s"},
	{"gvecsr.verify_s", "s"},
	{"core.move_s", "s"},
	{"core.refine_s", "s"},
	{"core.aggregate_s", "s"},
	{"core.other_s", "s"},
	{"core.passes", "count"},
	{"core.iterations", "count"},
	{"core.scanned", "count"},
	{"core.pruned", "count"},
	{"core.moves", "count"},
	{"core.move_yield", "fraction"},
	{"core.flat_share", "fraction"},
	{"core.agg_occupancy", "fraction"},
	{"core.dq_gap", "ratio"},
	{"core.solve_s", "s"},
	{"core.edges_per_s", "edges/s"},
	{"core.solve_1t_s", "s"},
	{"parallel.speedup", "ratio"},
	{"parallel.regions", "count"},
	{"parallel.chunks", "count"},
	{"parallel.steal_yield", "fraction"},
	{"parallel.stolen_share", "fraction"},
	{"core.det.scanned", "count"},
	{"core.det.moves", "count"},
	{"core.det.iterations", "count"},
	{"stream.apply_s", "s"},
	{"stream.snapshot_s", "s"},
	{"core.warm_run_s", "s"},
	{"core.warm_moves", "count"},
	{"core.warm_scanned", "count"},
	{"oracle.check_csr_s", "s"},
	{"oracle.check_partition_s", "s"},
	{"oracle.check_connected_s", "s"},
	{"serve.residual_s", "s"},
	{"serve.delta_rtt_s", "s"},
	{"serve.run_s", "s"},
	{"serve.freshness_s", "s"},
	{"serve.query_p50_us", "us"},
	{"serve.query_p99_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.gate_rejections", "count"},
	{"serve.delta_rejections", "count"},
	{"trace.op_s", "s"},
	{"trace.overhead_share", "fraction"},
}

// metric is one reported value with its unit, as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects a workload's figures by metric name. A workload sets
// every end-to-end metric and the per-layer metrics of the layers it
// exercises; final selects the set the run's mode reports.
type values map[string]float64

// final returns the metrics of one mode. End-to-end metrics must all
// be set, finite and non-zero. A per-layer metric a workload does not
// exercise reads 0 — that layer did no work on this workload.
func (v values) final(traced bool) (map[string]metric, error) {
	out := map[string]metric{}
	if !traced {
		for _, d := range endToEnd {
			x, ok := v[d.name]
			if !ok || x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("end-to-end metric %s not measured (value %v)", d.name, x)
			}
			out[d.name] = metric{x, d.unit}
		}
		return out, nil
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", d.name, x)
		}
		out[d.name] = metric{x, d.unit}
	}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	var stray []string
	for name := range v {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics set but not declared: %v", stray)
	}
	return out, nil
}
