package core

import (
	"time"

	"gveleiden/internal/color"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

// Louvain runs GVE-Louvain: the same optimized machinery as Leiden —
// asynchronous local moving with flag-based pruning, per-thread
// collision-free hashtables, prefix-sum CSR aggregation, threshold
// scaling, aggregation tolerance — but without the refinement phase.
// The paper's optimizations were originally developed for this
// algorithm [23]; it serves here as the ablation baseline that can
// produce internally-disconnected communities (Figure 6d contrast).
func Louvain(g *graph.CSR, opt Options) *Result {
	res, _ := solve(g, opt, "louvain", false, nil, nil)
	return res
}

func runLouvain(g *graph.CSR, ws *workspace) {
	opt := ws.opt
	cur := g
	tau := opt.Tolerance
	opt.Pool.Iota(ws.top[:ws.n0], opt.Threads)
	for pass := 0; pass < opt.MaxPasses; pass++ {
		var ps PassStats
		n := cur.NumVertices()
		ps.Vertices = n
		ps.Arcs = cur.NumArcs()
		ws.emit(Event{Kind: PassBegin, Algorithm: "louvain", Pass: pass, Graph: cur})

		t0 := now()
		k := ws.k[:n]
		ws.vertexWeights(cur, k)
		if pass == 0 {
			ws.m = opt.Pool.SumFloat64(k, opt.Threads) / 2
			if ws.m == 0 {
				ws.endPass("louvain", pass, &ps)
				return
			}
			opt.Pool.FillFloat64(ws.vsize[:n], 1, opt.Threads)
		}
		ws.initialCommunities(n, false) // Louvain passes start singleton
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

		comm := ws.comm[:n]
		if li <= 1 && pass > 0 {
			// Converged: the previous level's communities stand.
			t0 = now()
			ws.lookupDendrogram(comm)
			ps.Other += time.Since(t0)
			ws.endPass("louvain", pass, &ps)
			return
		}

		t0 = now()
		nComms := ws.renumber(comm, n)
		ps.Communities = nComms
		ws.lookupDendrogram(comm)
		lowShrink := float64(nComms)/float64(n) > opt.AggregationTolerance
		ps.Other += time.Since(t0)
		if lowShrink {
			ws.endPass("louvain", pass, &ps)
			return
		}

		t0 = now()
		ws.emit(Event{Kind: PhaseBegin, Pass: pass, Phase: "aggregate"})
		next, occ := ws.aggregate(cur, nComms)
		ws.aggregateSizes(n, nComms)
		ws.emit(Event{Kind: PhaseEnd, Pass: pass, Phase: "aggregate"})
		ps.AggOccupancy = occ
		ps.Aggregate = time.Since(t0)
		// Louvain has no separate refinement: the renumbered move
		// partition is what aggregation grouped by.
		ws.emit(Event{Kind: LevelBuilt, Algorithm: "louvain", Pass: pass, Graph: cur,
			Refined: comm, Communities: nComms, Aggregated: next})
		ws.phiNext = next // its singletons are this pass's move partition
		cur = next
		tau /= opt.ToleranceDrop
		ws.endPass("louvain", pass, &ps)
	}
}

// Quality re-exported helpers so callers of core don't need the quality
// package for the common case.

// ModularityOf returns the modularity of an arbitrary membership on g.
func ModularityOf(g *graph.CSR, membership []uint32) float64 {
	return quality.Modularity(g, membership)
}
