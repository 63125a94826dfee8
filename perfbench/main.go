// Command perfbench is the repository benchmark: static Leiden solves
// on two graph shapes and a live serving mix, driven through the
// system's public functions from outside. See README.md beside it.
//
//	bash perfbench/run.sh --workload static-social --seed 1 --seconds 10 --trace 0
//
// The last line of stdout is the verdict: correct, attempted, failed
// and the metrics of the run's mode (end-to-end untraced, per-layer
// traced). The line before it describes the machine and the inputs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// scale multiplies every workload's graph size; 1 is the
	// benchmark, tests use tiny scales.
	scale   float64
	dir     string // scratch directory for generated inputs and traces
	threads int
	log     io.Writer
}

// runReport is what a workload measured, before it is printed.
type runReport struct {
	attempted, failed int64
	vals              values
	describe          map[string]any
	trace             *tracer
	// opSeconds is the traced run's CPU time per operation, as
	// cpu_per_op_ms measures it untraced. With spansPerOp,
	// the spans recorded per operation, it gives the tracing overhead.
	spansPerOp, opSeconds float64
}

type workload struct {
	name string
	run  func(cfg config) (*runReport, error)
}

var workloads = []workload{
	{"static-social", runStaticSocial},
	{"static-road", runStaticRoad},
	{"serve-social", runServeSocial},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: static-social, static-road or serve-social")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	scale := fs.Float64("scale", 1, "multiplier on graph sizes (tests use tiny scales)")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for generated inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || !(*seconds > 0) || !(*scale > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload static-social|static-road|serve-social, --trace 0|1, positive --seconds and --scale\n")
		return 2
	}
	threads := runtime.NumCPU()
	runtime.GOMAXPROCS(threads)
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		scale:    *scale,
		dir:      *dir,
		threads:  threads,
		log:      stderr,
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	steal0, total0, ticksOK := cpuTicks()
	rep, err := w.run(cfg)
	steal1, total1, _ := cpuTicks()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.traced {
		rep.vals["trace.op_s"] = rep.opSeconds
		rep.vals["trace.overhead_share"] = rep.spansPerOp * spanCost().Seconds() / rep.opSeconds
		path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := rep.trace.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", rep.trace.count(), path)
	}
	metrics, err := rep.vals.final(cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	describe := environment(cfg)
	if ticksOK && total1 > total0 {
		describe["cpu_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	for k, v := range rep.describe {
		describe[k] = v
	}
	out := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"describe": describe}); err != nil {
		return 1
	}
	if err := enc.Encode(out); err != nil {
		return 1
	}
	return 0
}

// environment describes the machine and the run's settings.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"traced":     cfg.traced,
		"scale":      cfg.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    cfg.threads,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// generate writes a graph of n vertices into a gvecsr container, so
// the program only ever receives generated inputs through its own
// storage format, and returns the container's path.
func generate(cfg config, name string, n int, stream graph.EdgeStream) (string, error) {
	path := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d%s", name, n, cfg.seed, gvecsr.Ext))
	if err := gvecsr.WriteFileStream(path, n, stream, gvecsr.WriteOptions{}); err != nil {
		return "", fmt.Errorf("generate %s: %w", name, err)
	}
	// Flush the new file now, so write-back does not run inside set-up.
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return "", fmt.Errorf("sync %s: %w", path, err)
	}
	return path, nil
}

// socialBlocks is a social graph of about n vertices: blocks
// independent copies of the repository's streamed social class
// (power-law community sizes, 30% of edges leaving their community) at
// average degree 15, joined by uniform random bridges of average
// degree 1. Each block has 16 communities, fewer in blocks too small
// to give each at least four vertices. A single power-law draw of
// community sizes swings modularity and solve time by several percent
// from seed to seed; summing independent blocks averages that out, so
// different seeds give comparable inputs.
func socialBlocks(n, blocks int, seed uint64) (graph.EdgeStream, int) {
	per := n / blocks
	streams := make([]graph.EdgeStream, blocks)
	for b := range streams {
		streams[b], _ = gen.StreamedSocial(per, 15, max(1, min(16, per/4)), 0.3, seed*uint64(blocks)+uint64(b))
	}
	total := per * blocks
	bridges := gen.StreamedER(total, 1, ^seed)
	return func(emit func(u, v uint32, w float32)) {
		for b, s := range streams {
			off := uint32(b * per)
			s(func(u, v uint32, w float32) { emit(u+off, v+off, w) })
		}
		bridges(emit)
	}, total
}

func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 64 {
		return s
	}
	return 64
}

func logf(cfg config, format string, args ...any) {
	fmt.Fprintf(cfg.log, "perfbench: "+format+"\n", args...)
}

// cpuTicks returns the steal and total CPU ticks of /proc/stat, or
// false where that file does not exist. A run's steal share tells how
// much of the machine another tenant took while it measured.
func cpuTicks() (steal, total float64, ok bool) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 7 {
			steal = v
		}
		total += v
	}
	return steal, total, true
}

// cpuSeconds returns the CPU time all the process's threads have run,
// user and system. Unlike wall time it leaves out the time the
// hypervisor gave the CPU to another tenant (the kernel accounts steal
// separately) and the time other processes held it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
