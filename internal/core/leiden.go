package core

import (
	"time"

	"gveleiden/internal/color"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// Leiden runs GVE-Leiden (Algorithm 1) on g and returns the detected
// communities with per-phase statistics. The input graph must be
// undirected (symmetric arcs); see graph.Builder, which guarantees it.
//
// Each pass runs the local-moving phase to a tolerance τ, the
// constrained refinement phase, and — unless converged or shrinking too
// little — renumbers the refined communities, updates the top-level
// dendrogram, aggregates communities into super-vertices, and scales the
// threshold (τ /= ToleranceDrop). With move-based labels (the default),
// super-vertices start the next pass grouped by the communities the
// local-moving phase found, as recommended by Traag et al.; with
// refine-based labels they start as singletons.
func Leiden(g *graph.CSR, opt Options) *Result {
	res, _ := solve(g, opt, "leiden", false, nil, nil)
	return res
}

// solve is the run driver behind every entry point. It normalizes opt,
// builds the workspace (recording the dendrogram when hierarchy is set,
// warm-starting pass 0 from warm and seeding its pruning flags from
// frontier when those are non-nil), runs the passes of alg ("leiden" or
// "louvain") and the optional final refinement, and assembles the
// Result, all between one RunBegin and RunEnd event.
func solve(g *graph.CSR, opt Options, alg string, hierarchy bool, warm, frontier []uint32) (*Result, *Hierarchy) {
	opt = opt.normalize()
	ws := newWorkspace(g, opt)
	if hierarchy {
		ws.hierarchy = &Hierarchy{}
	}
	ws.warm, ws.frontier = warm, frontier
	ws.emit(Event{Kind: RunBegin, Algorithm: alg, Graph: g, Threads: opt.Threads})
	start := now()
	if alg == "louvain" {
		runLouvain(g, ws)
	} else {
		runLeiden(g, ws)
	}
	if opt.FinalRefine {
		ws.finalRefine(g)
		if alg == "leiden" {
			// Final refinement moves individual vertices and can disconnect
			// a community the same way the move phase can; re-split
			// afterwards. Louvain makes no connectivity promise.
			ws.splitConnected(g, ws.top)
		}
	}
	res := finishResult(g, ws, time.Since(start))
	ws.emit(Event{Kind: RunEnd, Algorithm: alg})
	return res, ws.hierarchy
}

func runLeiden(g *graph.CSR, ws *workspace) {
	opt := ws.opt
	cur := g
	tau := opt.Tolerance
	haveInit := false
	if ws.warm != nil {
		copy(ws.initC[:ws.n0], ws.warm) //gvevet:exclusive single-threaded run setup: no workers are active yet
		haveInit = true
		ws.warm = nil
	}
	opt.Pool.Iota(ws.top[:ws.n0], opt.Threads)
	for pass := 0; pass < opt.MaxPasses; pass++ {
		var ps PassStats
		n := cur.NumVertices()
		ps.Vertices = n
		ps.Arcs = cur.NumArcs()
		ws.emit(Event{Kind: PassBegin, Algorithm: "leiden", Pass: pass, Graph: cur})

		t0 := now()
		k := ws.k[:n]
		ws.vertexWeights(cur, k)
		if pass == 0 {
			ws.m = opt.Pool.SumFloat64(k, opt.Threads) / 2
			if ws.m == 0 {
				// Edgeless graph: every vertex is its own community.
				ws.endPass("leiden", pass, &ps)
				return
			}
			opt.Pool.FillFloat64(ws.vsize[:n], 1, opt.Threads)
		}
		ws.initialCommunities(n, haveInit)
		ps.Other += time.Since(t0)
		var coloring *color.Coloring
		if opt.Deterministic {
			t0 = now()
			coloring = color.GreedyOn(opt.Pool, cur, opt.Threads)
			ps.Color = time.Since(t0)
		}

		t0 = now()
		ws.emit(Event{Kind: PhaseBegin, Pass: pass, Phase: "move"})
		var li int
		if coloring != nil {
			li = ws.movePhaseColored(cur, tau, coloring, pass, &ps)
		} else {
			li = ws.movePhase(cur, tau, pass, &ps)
		}
		ws.emit(Event{Kind: PhaseEnd, Pass: pass, Phase: "move"})
		ps.MoveIterations = li
		ps.Move = time.Since(t0)

		// Community bounds for refinement: the move-phase communities;
		// then reset memberships and community weights to singletons.
		t0 = now()
		comm := ws.comm[:n]
		copy(ws.bounds[:n], comm)
		opt.Pool.Iota(comm, opt.Threads)
		ws.sigma.CopyFrom(opt.Pool, k, opt.Threads)
		ws.csize.CopyFrom(opt.Pool, ws.vsize[:n], opt.Threads)
		ps.Other += time.Since(t0)

		t0 = now()
		ws.emit(Event{Kind: PhaseBegin, Pass: pass, Phase: "refine"})
		var moves int64
		if coloring != nil {
			moves = ws.refinePhaseColored(cur, coloring)
		} else {
			moves = ws.refinePhase(cur)
		}
		ws.emit(Event{Kind: PhaseEnd, Pass: pass, Phase: "refine"})
		ps.RefineMoves = moves
		ps.Refine = time.Since(t0)

		if li <= 1 && moves == 0 {
			// Globally converged (Algorithm 1 line 8): the flat result is
			// the local-moving partition of this pass — which, like any
			// move partition, may hold internally-disconnected communities;
			// split those into their components before recording.
			t0 = now()
			ws.splitConnected(cur, ws.bounds[:n])
			ps.Split = time.Since(t0)
			t0 = now()
			ws.recordLevel(ws.bounds[:n], false)
			ws.lookupDendrogram(ws.bounds[:n])
			ps.Other += time.Since(t0)
			ws.endPass("leiden", pass, &ps)
			return
		}

		t0 = now()
		nComms := ws.renumber(comm, n)
		ps.Communities = nComms
		if float64(nComms)/float64(n) > opt.AggregationTolerance {
			// Low shrink (line 10): aggregating buys almost nothing;
			// stop with the move partition, which subsumes the refined one
			// (split first — move partitions may be disconnected).
			ps.Other += time.Since(t0)
			t0 = now()
			ws.splitConnected(cur, ws.bounds[:n])
			ps.Split = time.Since(t0)
			t0 = now()
			ws.recordLevel(ws.bounds[:n], false)
			ws.lookupDendrogram(ws.bounds[:n])
			ps.Other += time.Since(t0)
			ws.endPass("leiden", pass, &ps)
			return
		}
		ws.recordLevel(comm, true)
		ws.lookupDendrogram(comm) // line 12: C ← C'[C]
		ps.Other += time.Since(t0)

		t0 = now()
		ws.emit(Event{Kind: PhaseBegin, Pass: pass, Phase: "aggregate"})
		next, occ := ws.aggregate(cur, nComms)
		ws.aggregateSizes(n, nComms)
		ws.emit(Event{Kind: PhaseEnd, Pass: pass, Phase: "aggregate"})
		ps.AggOccupancy = occ
		ps.Aggregate = time.Since(t0)
		// Pass boundary: every phase's pool barriers are behind us, so
		// observers read a quiescent snapshot.
		ws.emit(Event{Kind: LevelBuilt, Algorithm: "leiden", Pass: pass, Graph: cur,
			Move: ws.bounds[:n], Refined: comm, Communities: nComms, Aggregated: next})

		t0 = now()
		if opt.Labels == LabelMove {
			ws.moveLabels(n) // line 14: map super-vertices to move labels
			haveInit = true
			ws.phiNext = next
		} else {
			haveInit = false
		}
		cur = next
		tau /= opt.ToleranceDrop // line 15: threshold scaling
		ps.Other += time.Since(t0)
		ws.endPass("leiden", pass, &ps)
	}
	// MaxPasses exhausted after an aggregation: apply the pending
	// move-based grouping of the last level (Algorithm 1 line 16 uses
	// the mapped C').
	if haveInit {
		ws.splitConnected(cur, ws.initC[:cur.NumVertices()]) //gvevet:exclusive pass boundary: initC's stores in moveLabels finished behind the pass's pool barriers
		ws.recordLevel(ws.initC[:cur.NumVertices()], false)  //gvevet:exclusive pass boundary: initC's stores in moveLabels finished behind the pass's pool barriers
		ws.lookupDendrogram(ws.initC[:cur.NumVertices()])    //gvevet:exclusive pass boundary: initC's stores in moveLabels finished behind the pass's pool barriers
	}
}

// finishResult densifies the top-level labels and computes the final
// modularity.
func finishResult(g *graph.CSR, ws *workspace, elapsed time.Duration) *Result {
	// Record the per-pass stats collected in ws, then renumber the
	// top-level membership to dense community ids.
	nComms := ws.renumber(ws.top, ws.n0)
	ws.stats.Total = elapsed
	res := &Result{
		Membership:     ws.top,
		NumCommunities: nComms,
		Modularity:     quality.Modularity(g, ws.top),
		Passes:         len(ws.stats.Passes),
		Stats:          ws.stats,
	}
	switch ws.opt.Objective {
	case ObjectiveCPM:
		res.Quality = quality.CPM(g, ws.top, ws.opt.Resolution)
	default:
		if ws.opt.Resolution == 1 {
			res.Quality = res.Modularity
		} else {
			res.Quality = quality.ModularityResolution(g, ws.top, ws.opt.Resolution)
		}
	}
	return res
}
