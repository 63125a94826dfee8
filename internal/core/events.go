package core

import "gveleiden/internal/graph"

// EventKind says which boundary of a run an Event marks.
type EventKind uint8

const (
	// RunBegin opens a run: Algorithm, Graph (the input) and Threads are set.
	RunBegin EventKind = iota
	// RunEnd closes the run once its Result is final.
	RunEnd
	// PassBegin opens a pass on Graph, the level graph.
	PassBegin
	// PassEnd closes the pass; Stats is its entry in Result.Stats.Passes.
	PassEnd
	// PhaseBegin opens the "move", "refine" or "aggregate" phase named by
	// Phase.
	PhaseBegin
	// PhaseEnd closes the phase named by Phase.
	PhaseEnd
	// IterBegin opens a local-moving iteration.
	IterBegin
	// IterEnd closes the iteration; Iter holds its work counters.
	IterEnd
	// LevelBuilt follows the aggregate phase of a pass that aggregated:
	// Graph, Move, Refined, Communities and Aggregated snapshot the level.
	// Exit passes (converged, low shrink, pass budget spent) build no level.
	LevelBuilt
)

// Event is one boundary of a run's structure: the run, each pass, each
// phase and each local-moving iteration have a begin and an end, and an
// aggregating pass adds a LevelBuilt snapshot. Events arrive in order on
// the goroutine that called the entry point and nest strictly,
// run ⊃ pass ⊃ phase ⊃ iteration. Which fields are set depends on Kind.
//
// Pointer and slice fields alias live run state — Aggregated in
// particular is a holey CSR in an arena a later pass overwrites. Read
// them during the callback and copy anything that must outlive it.
type Event struct {
	Kind EventKind
	// Algorithm names the driver on run and pass events: "leiden" or
	// "louvain", and "final-refine" for the multilevel refinement pass.
	Algorithm string
	// Pass is the zero-based pass index of every event below a run.
	Pass int
	// Iteration is the zero-based local-moving iteration of the pass.
	Iteration int
	// Phase names a phase event: "move", "refine" or "aggregate".
	Phase string
	// Graph is the run's input (RunBegin) or the pass's level graph
	// (PassBegin, LevelBuilt): the input at pass 0, a holey aggregated
	// CSR afterwards.
	Graph *graph.CSR
	// Threads is the run's worker count (RunBegin).
	Threads int
	// Stats is the pass's entry in Result.Stats.Passes (PassEnd).
	Stats *PassStats
	// Iter holds the iteration's work counters (IterEnd).
	Iter IterStats
	// Move is the local-moving partition of Graph's vertices, labelled by
	// raw vertex ids (LevelBuilt; nil for Louvain, whose only partition
	// is Refined).
	Move []uint32
	// Refined is the partition that became the next level's
	// super-vertices, dense in [0, Communities): Leiden's constrained
	// refinement of Move, Louvain's move partition itself (LevelBuilt).
	Refined []uint32
	// Communities is the number of refined communities, the aggregated
	// graph's vertex count (LevelBuilt).
	Communities int
	// Aggregated is the super-vertex graph built from Refined
	// (LevelBuilt).
	Aggregated *graph.CSR
}

// IterStats counts one local-moving iteration's work.
type IterStats struct {
	Scanned   int64   // vertices examined
	Pruned    int64   // vertices skipped by flag-based pruning
	FlatScans int64   // scanned vertices served by the flat-array scan
	Moves     int64   // moves applied
	DeltaQ    float64 // ΔQ gained
}

// Observer receives every Event of a run — the one instrumentation
// hook of Options. Tracing, progress lines, logs, telemetry and the
// oracle's level checks are all observers; MultiObserver chains them.
// Two concurrent runs sharing an observer call it concurrently.
type Observer func(Event)

// MultiObserver returns an observer passing each event to the non-nil
// observers in order — nil when there are none, so the run keeps its
// no-observer fast path.
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, o := range live {
			o(e)
		}
	}
}

// emit delivers e to the run's observer. Every event goes through it;
// with no observer set it costs one nil comparison.
func (ws *workspace) emit(e Event) {
	if ws.opt.Observer != nil {
		ws.opt.Observer(e)
	}
}

// endPass records ps as the run's next pass and emits its PassEnd
// event, whose Stats is the recorded entry itself. alg names the driver
// ("leiden", "louvain", "final-refine").
func (ws *workspace) endPass(alg string, pass int, ps *PassStats) {
	ws.stats.Passes = append(ws.stats.Passes, *ps)
	ws.emit(Event{Kind: PassEnd, Algorithm: alg, Pass: pass, Stats: &ws.stats.Passes[len(ws.stats.Passes)-1]})
}
