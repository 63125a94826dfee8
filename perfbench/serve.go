package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gveleiden/internal/core"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/observe"
	"gveleiden/internal/oracle"
	"gveleiden/internal/parallel"
	"gveleiden/internal/quality"
	"gveleiden/internal/serve"
	"gveleiden/internal/stream"
)

// Serving workload settings.
const (
	serveVertices  = 8_000
	queryRate      = 500.0            // open-loop queries per second
	batchEdits     = 16               // insertions and as many deletions per delta batch
	batchRate      = 10.0             // most delta batches posted per second
	serveSetupReps = 25               // set-ups per run; setup_s is their median CPU time
	visibleTimeout = 20 * time.Second // a batch not visible by then counts as failed
	replayMax      = 10               // swaps the traced run replays stage by stage
	membersLimit   = 16               // ?limit= of /members queries
)

func runServeSocial(cfg config) (*runReport, error) {
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	stream, n := socialBlocks(scaled(serveVertices, cfg.scale), 8, cfg.seed)
	path, err := generate(cfg, "social", n, stream)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)

	v := values{}
	rep := &runReport{vals: v, trace: t}
	var setup, opens, verifies []float64
	// start builds a server and times its set-up. The previous server's
	// garbage is collected first, so set-up is not charged for it.
	start := func() (*liveServer, error) {
		runtime.GC()
		c0 := cpuSeconds()
		live, err := startServer(t, path, cfg.threads)
		if err != nil {
			return nil, err
		}
		setup = append(setup, cpuSeconds()-c0)
		opens = append(opens, live.open)
		verifies = append(verifies, live.verify)
		return live, nil
	}
	// Half the set-ups run before the window and half after it, so
	// their median spans the run instead of its first seconds.
	for i := 0; i < serveSetupReps; i++ {
		live, err := start()
		if err != nil {
			return nil, err
		}
		if i < serveSetupReps/2 {
			if err := live.stop(); err != nil {
				return nil, err
			}
			continue
		}
		if i == serveSetupReps/2 {
			// The server's graph aliases the mapped container, so
			// everything that reads it runs before stop unmaps it.
			err = measure(cfg, t, live, rep)
		}
		if stopErr := live.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}
	v["setup_s"] = median(setup)
	v["gvecsr.open_s"] = median(opens)
	v["gvecsr.verify_s"] = median(verifies)
	return rep, nil
}

// measure drives the live server for the window and fills in the
// run's metrics; traced, it also replays the swaps stage by stage.
func measure(cfg config, t *tracer, live *liveServer, rep *runReport) error {
	v := rep.vals
	base := live.srv.Snapshot()
	ls, err := runLive(cfg, t, live, base)
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = ls.attempted, ls.failed

	latUS, lagMS, _ := ls.queries.summary()
	fresh := median(ls.fresh)
	// One operation is one batch interval of the fixed mix: a delta
	// applied, checked and published, and the queries due meanwhile.
	cpuPerOp := median(ls.intervalCPU)
	v["cpu_per_op_ms"] = cpuPerOp * 1e3
	v["modularity"] = ls.finalModularity
	v["alloc_mb"] = ls.allocMB
	rep.describe = map[string]any{
		"class":            "social",
		"vertices":         base.Graph.NumVertices(),
		"arcs":             base.Graph.NumArcs(),
		"edges":            base.Graph.NumUndirectedEdges(),
		"query_rate":       queryRate,
		"query_conns":      queryConns(cfg.threads),
		"batch_edits":      2 * batchEdits,
		"batch_rate":       batchRate,
		"queries":          len(latUS),
		"swaps":            len(ls.fresh),
		"interval_cpu_iqr": spread(ls.intervalCPU),
		"freshness_s":      fresh,
		"freshness_iqr":    spread(ls.fresh),
		"query_p50_us":     median(latUS),
		"setup_reps":       serveSetupReps,
		"server_conns":     ls.conns,
		"queries_failed":   ls.queriesFailed,
	}
	if cfg.traced {
		v["serve.freshness_s"] = fresh
		v["serve.query_p50_us"] = median(latUS)
		v["serve.query_p99_us"] = tail(latUS, 0.99)
		v["serve.run_s"] = ls.runS
		v["serve.delta_rtt_s"] = median(ls.rtt)
		v["serve.gen_lag_ms"] = tail(lagMS, 0.99)
		v["serve.gate_rejections"] = ls.gateRejections
		v["serve.delta_rejections"] = ls.deltaRejections
		v["serve.handler_p50_us"] = ls.handlerP50 * 1e6
		v["serve.handler_p99_us"] = ls.handlerP99 * 1e6
		v["serve.transport_us"] = v["serve.query_p50_us"] - v["serve.handler_p50_us"]
		stages, err := replay(cfg, t, base.Graph, ls.batches, rep)
		if err != nil {
			return err
		}
		for k, x := range stages {
			v[k] = x
		}
		// Apply runs before the acknowledgement, so it is not part of
		// freshness; the other stages are.
		v["serve.residual_s"] = fresh - (stages["stream.snapshot_s"] + stages["core.warm_run_s"] +
			stages["oracle.check_csr_s"] + stages["oracle.check_partition_s"] + stages["oracle.check_connected_s"])
		// A query span each, and a delta and a visibility span per batch.
		rep.spansPerOp = float64(len(latUS))/float64(ls.batchesPosted) + 2
		rep.opSeconds = cpuPerOp
	}
	v["success_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	return nil
}

// queryConns is the number of client connections the open loop uses:
// with the delta client's one, the load uses nproc connections.
func queryConns(threads int) int { return max(1, threads-1) }

// liveServer is the program under test: a serve.Server behind a
// loopback listener, with the container its graph is mapped from.
type liveServer struct {
	file         *gvecsr.File
	srv          *serve.Server
	hs           *http.Server
	base         string
	served       chan error
	conns        atomic.Int64
	open, verify float64
}

// startServer loads the graph, builds the server (the cold hierarchy
// run, initial gate and index) and returns once the listener answers.
func startServer(t *tracer, path string, threads int) (*liveServer, error) {
	file, g, open, verify, _, err := loadGraph(t, path)
	if err != nil {
		return nil, err
	}
	cfg := serve.DefaultConfig()
	cfg.Options.Threads = threads
	var srv *serve.Server
	t.time("serve.New", 0, 0, func() { srv, err = serve.New(g, cfg) })
	if err != nil {
		file.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		file.Close()
		return nil, err
	}
	l := &liveServer{file: file, srv: srv, base: "http://" + ln.Addr().String(), served: make(chan error, 1), open: open, verify: verify}
	l.hs = &http.Server{
		Handler: srv.Handler(),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				l.conns.Add(1)
			}
		},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	if err := (&serve.Client{Base: l.base, HTTP: hc}).Healthz(); err != nil {
		l.stop()
		return nil, fmt.Errorf("listener did not answer: %w", err)
	}
	return l, nil
}

// stop drains the listener, stops the recompute worker and unmaps the
// graph, waiting for each to finish.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serveErr := <-l.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if cerr := l.srv.Close(ctx); err == nil {
		err = cerr
	}
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	return err
}

func newClient(base string) (*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &serve.Client{Base: base, HTTP: &http.Client{Transport: tr, Timeout: 30 * time.Second}}, tr
}

// liveStats is what the live phase measured.
type liveStats struct {
	attempted, failed int64
	queriesFailed     int64
	queries           loadLog
	fresh, rtt        []float64
	batches           []batch
	batchesPosted     int64
	// intervalCPU is the process's CPU time from one batch's slot to
	// the next; runS the mean time of the server's detection runs.
	intervalCPU     []float64
	runS            float64
	allocMB         float64
	finalEdges      int64
	finalModularity float64
	conns           int64
	// From the server's own /metrics.json at the end of the window.
	handlerP50, handlerP99          float64
	gateRejections, deltaRejections float64
}

// runLive drives the server for the window: an open loop of queries
// and a paced closed loop of delta batches, each posted once the previous
// one is visible to queries. It then checks the final snapshot.
func runLive(cfg config, t *tracer, live *liveServer, base *serve.Snapshot) (*liveStats, error) {
	ls := &liveStats{}
	n := uint32(base.Graph.NumVertices())
	// /members asks for ids below half the initial community count:
	// swaps renumber communities densely, and batches of a few tens of
	// edits do not halve their number.
	comms := uint32(max(1, base.Result.NumCommunities/2))
	mir := newMirror(base.Graph)
	vis := newVisibility()

	ctx, stopQueries := context.WithCancel(context.Background())
	defer stopQueries()
	loop := newOpenLoop(time.Now(), queryRate)
	var wg sync.WaitGroup
	for w := 0; w < queryConns(cfg.threads); w++ {
		c, tr := newClient(live.base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			var free time.Time // when this connection finished its last request
			for {
				i, due := loop.claim()
				if !sleepUntil(ctx, due) {
					return
				}
				a := t.begin("serve.query", 0, 0)
				sent := time.Now()
				ver, err := query(c, cfg.seed, i, n, comms)
				done := time.Now()
				a.end()
				if err == nil && (ver < 1 || ver > live.srv.Snapshot().Version) {
					err = fmt.Errorf("version %d outside [1, %d]", ver, live.srv.Snapshot().Version)
				}
				if err == nil {
					vis.observe(ver, done)
				} else {
					logf(cfg, "query %d: %v", i, err)
				}
				ls.queries.add(outcome{due: due, free: free, sent: sent, done: done, ok: err == nil})
				free = done
			}
		}()
	}

	dc, dtr := newClient(live.base)
	defer dtr.CloseIdleConnections()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6a09e667f3bcc908))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sum0, count0, err := recomputeTotals(dc)
	if err != nil {
		return nil, err
	}
	var lastCPU float64
	// Batches are paced as well as closed-loop: batch i goes out once
	// batch i−1 is visible, and not before its own slot in a fixed-rate
	// schedule. A machine that keeps up applies the same number of
	// edits in every run, so the final graph and its modularity do not
	// depend on how fast the run went.
	deltas := newOpenLoop(time.Now(), batchRate)
	deadline := time.Now().Add(cfg.seconds)
	for swap := int64(1); ; swap++ {
		_, due := deltas.claim()
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		c := cpuSeconds()
		if swap > 1 {
			ls.intervalCPU = append(ls.intervalCPU, c-lastCPU)
		}
		lastCPU = c
		b := mir.next(rng, batchEdits)
		ls.attempted++
		ls.batchesPosted++
		a := t.begin("serve.delta", 0, swap)
		resp, err := dc.ApplyDelta(b.updates())
		rtt := a.end()
		if err != nil {
			ls.failed++
			logf(cfg, "delta %d: %v", swap, err)
			continue
		}
		ack := time.Now()
		ls.rtt = append(ls.rtt, rtt.Seconds())
		mir.apply(b)
		ls.batches = append(ls.batches, b)
		a = t.begin("serve.visible", 0, swap)
		select {
		case at := <-vis.arm(resp.Version):
			a.end()
			ls.fresh = append(ls.fresh, at.Sub(ack).Seconds())
		case <-time.After(visibleTimeout):
			a.end()
			vis.disarm()
			ls.failed++
			logf(cfg, "delta %d: not visible after %v", swap, visibleTimeout)
			continue
		}
	}
	runtime.ReadMemStats(&m1)
	stopQueries()
	wg.Wait()
	sum1, count1, err := recomputeTotals(dc)
	if err != nil {
		return nil, err
	}
	if len(ls.fresh) == 0 || count1 == count0 {
		return nil, fmt.Errorf("no swap became visible in the %v window", cfg.seconds)
	}
	ls.runS = (sum1 - sum0) / float64(count1-count0)
	ls.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(len(ls.fresh))

	_, _, qFailed := ls.queries.summary()
	ls.queriesFailed = qFailed
	ls.attempted += int64(len(ls.queries.outcomes))
	ls.failed += qFailed

	// The final snapshot must pass the output checks and hold exactly
	// the base graph plus every accepted batch.
	final := live.srv.Snapshot()
	ls.attempted++
	ls.finalEdges = final.Graph.NumUndirectedEdges()
	ls.finalModularity = final.Result.Modularity
	if err := checkOutput(final.Graph, final.Result, cfg.threads); err != nil {
		ls.failed++
		logf(cfg, "final snapshot: %v", err)
	} else if ls.finalEdges != int64(mir.len()) {
		ls.failed++
		logf(cfg, "final snapshot has %d edges, the mirror %d", ls.finalEdges, mir.len())
	}
	ls.conns = live.conns.Load()
	if want := int64(queryConns(cfg.threads) + 2); ls.conns > want {
		// Each client keeps one keep-alive connection; the health check
		// adds one. More means connections were not reused.
		logf(cfg, "server accepted %d connections, expected at most %d", ls.conns, want)
	}
	if cfg.traced {
		if err := ls.scrape(dc); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// sleepUntil waits for due, returning false if ctx ends first.
func sleepUntil(ctx context.Context, due time.Time) bool {
	d := time.Until(due)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// query sends the i-th request of the mix — uniform over /community,
// /neighbors, /members?limit= and /hierarchy at a seeded random vertex
// or community — and returns the snapshot version that answered it.
func query(c *serve.Client, seed uint64, i int64, n, comms uint32) (uint64, error) {
	r := rand.New(rand.NewPCG(seed, uint64(i)))
	v := r.Uint32N(n)
	switch r.IntN(4) {
	case 0:
		out, err := c.Community(v)
		if err == nil && out.Vertex != v {
			err = fmt.Errorf("/community?v=%d answered vertex %d", v, out.Vertex)
		}
		return out.Version, err
	case 1:
		out, err := c.Neighbors(v)
		if err == nil && out.Vertex != v {
			err = fmt.Errorf("/neighbors?v=%d answered vertex %d", v, out.Vertex)
		}
		return out.Version, err
	case 2:
		id := r.Uint32N(comms)
		out, err := c.Members(id, membersLimit)
		if err == nil && (out.Community != id || len(out.Members) > membersLimit || len(out.Members) > out.Size) {
			err = fmt.Errorf("/members?c=%d answered community %d with %d of %d members", id, out.Community, len(out.Members), out.Size)
		}
		return out.Version, err
	default:
		out, err := c.Hierarchy(v)
		if err == nil && (out.Vertex != v || len(out.Levels) != out.Depth) {
			err = fmt.Errorf("/hierarchy?v=%d answered vertex %d with %d levels at depth %d", v, out.Vertex, len(out.Levels), out.Depth)
		}
		return out.Version, err
	}
}

// visibility tells the delta client when a query first sees a version
// past the one its batch was acknowledged at.
type visibility struct {
	mu      sync.Mutex
	waiting bool
	after   uint64
	seen    chan time.Time
}

func newVisibility() *visibility { return &visibility{seen: make(chan time.Time, 1)} }

// arm starts waiting for a version above ack; the channel receives the
// time of the first query response that carried one.
func (v *visibility) arm(ack uint64) <-chan time.Time {
	v.mu.Lock()
	v.waiting, v.after = true, ack
	v.mu.Unlock()
	return v.seen
}

func (v *visibility) disarm() {
	v.mu.Lock()
	v.waiting = false
	select {
	case <-v.seen:
	default:
	}
	v.mu.Unlock()
}

func (v *visibility) observe(version uint64, at time.Time) {
	v.mu.Lock()
	if v.waiting && version > v.after {
		v.waiting = false
		v.seen <- at
	}
	v.mu.Unlock()
}

// metricsJSON fetches the server's /metrics.json.
func metricsJSON(c *serve.Client) ([]observe.Metric, error) {
	resp, err := c.HTTP.Get(c.Base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.json: status %d", resp.StatusCode)
	}
	var ms []observe.Metric
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	// Read to EOF so the keep-alive connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return ms, err
}

// recomputeTotals returns the sum and count of the server's
// gveserve_recompute_seconds histogram: the wall time of its detection
// runs. Differences across the window give their mean.
func recomputeTotals(c *serve.Client) (float64, uint64, error) {
	ms, err := metricsJSON(c)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range ms {
		if m.Name == "gveserve_recompute_seconds" {
			return m.Sum, m.Count, nil
		}
	}
	return 0, 0, errors.New("/metrics.json has no gveserve_recompute_seconds")
}

// scrape reads the handler latency and rejection counters from the
// server's /metrics.json.
func (ls *liveStats) scrape(c *serve.Client) error {
	ms, err := metricsJSON(c)
	if err != nil {
		return err
	}
	var merged []observe.Bucket
	for _, m := range ms {
		label := func(name string) string {
			for _, l := range m.Labels {
				if l.Name == name {
					return l.Value
				}
			}
			return ""
		}
		switch {
		case m.Name == "gveserve_request_seconds":
			switch label("endpoint") {
			case "community", "neighbors", "members", "hierarchy":
				merged = addBuckets(merged, m.Buckets)
			}
		case m.Name == "gveserve_recompute_rejections_total":
			ls.gateRejections = m.Value
		case m.Name == "gveserve_delta_batches_total" && label("status") == "rejected":
			ls.deltaRejections = m.Value
		}
	}
	ls.handlerP50 = bucketQuantile(merged, 0.5)
	ls.handlerP99 = bucketQuantile(merged, 0.99)
	return nil
}

func addBuckets(acc, b []observe.Bucket) []observe.Bucket {
	if acc == nil {
		return append([]observe.Bucket(nil), b...)
	}
	for i := range acc {
		acc[i].Count += b[i].Count
	}
	return acc
}

// bucketQuantile estimates a quantile from cumulative histogram
// buckets, interpolating linearly inside the bucket that holds it.
func bucketQuantile(b []observe.Bucket, q float64) float64 {
	if len(b) == 0 || b[len(b)-1].Count == 0 {
		return 0
	}
	rank := q * float64(b[len(b)-1].Count)
	lower, below := 0.0, uint64(0)
	for _, bk := range b {
		upper, err := strconv.ParseFloat(bk.LE, 64)
		if err != nil || math.IsInf(upper, 1) {
			return lower
		}
		if float64(bk.Count) >= rank {
			in := bk.Count - below
			if in == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(below))/float64(in)
		}
		lower, below = upper, bk.Count
	}
	return lower
}

// batch is one delta: edges to insert and edges to delete.
type batch struct{ ins, del []graph.Edge }

func (b batch) updates() (ins, del []serve.EdgeUpdate) {
	for _, e := range b.ins {
		ins = append(ins, serve.EdgeUpdate{U: e.U, V: e.V, W: e.W})
	}
	for _, e := range b.del {
		del = append(del, serve.EdgeUpdate{U: e.U, V: e.V})
	}
	return ins, del
}

// mirror is the benchmark's own copy of the served graph's edge set:
// deletions are drawn from it, insertions avoid it, and the final
// snapshot's edge count must equal its size.
type mirror struct {
	n     uint32
	keys  []uint64
	index map[uint64]int
}

func pairKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newMirror(g *graph.CSR) *mirror {
	m := &mirror{n: uint32(g.NumVertices()), index: map[uint64]int{}}
	for u := uint32(0); u < m.n; u++ {
		es, _ := g.Neighbors(u)
		for _, v := range es {
			if v >= u {
				m.add(pairKey(u, v))
			}
		}
	}
	return m
}

func (m *mirror) len() int { return len(m.keys) }

func (m *mirror) add(k uint64) {
	m.index[k] = len(m.keys)
	m.keys = append(m.keys, k)
}

func (m *mirror) remove(k uint64) {
	i := m.index[k]
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.index[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.index, k)
}

// next draws a batch of k insertions of new pairs and k deletions of
// distinct existing edges.
func (m *mirror) next(r *rand.Rand, k int) batch {
	var b batch
	taken := map[uint64]bool{}
	for len(b.del) < k && len(taken) < len(m.keys) {
		key := m.keys[r.IntN(len(m.keys))]
		if !taken[key] {
			taken[key] = true
			b.del = append(b.del, graph.Edge{U: uint32(key >> 32), V: uint32(key), W: 1})
		}
	}
	for len(b.ins) < k {
		u, v := r.Uint32N(m.n), r.Uint32N(m.n)
		key := pairKey(u, v)
		if _, ok := m.index[key]; ok || u == v || taken[key] {
			continue
		}
		taken[key] = true
		b.ins = append(b.ins, graph.Edge{U: u, V: v, W: 1})
	}
	return b
}

func (m *mirror) apply(b batch) {
	for _, e := range b.del {
		m.remove(pairKey(e.U, e.V))
	}
	for _, e := range b.ins {
		m.add(pairKey(e.U, e.V))
	}
}

// replay runs the accepted batches again through the public functions
// a server swap calls — stream apply and snapshot, the warm dynamic
// run, the oracle gate — with one span per stage, all sharing the
// swap's id. It returns the per-stage medians and the warm runs'
// phase and scheduler figures.
func replay(cfg config, t *tracer, g *graph.CSR, batches []batch, rep *runReport) (values, error) {
	pool := parallel.NewPool(cfg.threads)
	defer pool.Close()
	opt := core.DefaultOptions()
	opt.Threads, opt.Pool = cfg.threads, pool
	res, _ := core.LeidenHierarchy(g, opt)
	prev := res.Membership
	sg := stream.FromCSR(g)

	stage := map[string][]float64{}
	var runs []detection
	for i, b := range batches {
		if i == replayMax {
			break
		}
		sid := int64(i + 1)
		root := t.begin("swap", 0, sid)
		p := root.id()
		var err error
		stage["stream.apply_s"] = append(stage["stream.apply_s"],
			t.time("stream.Apply", p, sid, func() { err = sg.Apply(b.ins, b.del) }))
		if err != nil {
			return nil, fmt.Errorf("replay swap %d: %w", sid, err)
		}
		var next *graph.CSR
		stage["stream.snapshot_s"] = append(stage["stream.snapshot_s"],
			t.time("stream.Snapshot", p, sid, func() { next = sg.Snapshot() }))
		q0 := quality.Modularity(next, prev)
		pool.ResetCounters()
		stage["core.warm_run_s"] = append(stage["core.warm_run_s"],
			t.time("core.LeidenDynamicHierarchy", p, sid, func() {
				res, _ = core.LeidenDynamicHierarchy(next, prev, core.Delta{Insertions: b.ins, Deletions: b.del}, core.DynamicFrontier, opt)
			}))
		counters := pool.Counters()
		r := &oracle.Report{}
		stage["oracle.check_csr_s"] = append(stage["oracle.check_csr_s"],
			t.time("oracle.CheckCSR", p, sid, func() { oracle.CheckCSR(r, next) }))
		stage["oracle.check_partition_s"] = append(stage["oracle.check_partition_s"],
			t.time("oracle.CheckPartition", p, sid, func() { oracle.CheckPartition(r, next, res.Membership, true) }))
		stage["oracle.check_connected_s"] = append(stage["oracle.check_connected_s"],
			t.time("oracle.CheckConnected", p, sid, func() { oracle.CheckConnected(r, next, res.Membership, cfg.threads) }))
		root.end()
		rep.attempted++
		if err := r.Err(); err != nil {
			rep.failed++
			logf(cfg, "replay swap %d: %v", sid, err)
		}
		runs = append(runs, detection{res, counters, q0})
		prev = res.Membership
	}

	out := layerValues(runs)
	for k, xs := range stage {
		out[k] = median(xs)
	}
	// The replayed runs are the warm runs, so their work counters are
	// the warm-run counters too.
	out["core.warm_moves"] = out["core.moves"]
	out["core.warm_scanned"] = out["core.scanned"]
	return out, nil
}
