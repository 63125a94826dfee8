package core

import (
	"time"

	"gveleiden/internal/color"
	"gveleiden/internal/graph"
)

// finalRefine implements multilevel refinement (related work [7, 20,
// 25]: Rotta & Noack's refinement of the flat partition): after the
// coarsening passes finish, the flat membership is re-optimized by
// extra local-moving sweeps over the *original* graph, where individual
// vertices — not whole super-vertices — may switch communities. Every
// accepted move has positive gain, so quality is non-decreasing; the
// warm start makes the sweeps cheap.
func (ws *workspace) finalRefine(g *graph.CSR) {
	n := ws.n0
	if n == 0 || ws.m == 0 {
		return
	}
	var ps PassStats
	ps.Vertices = n
	ps.Arcs = g.NumArcs()
	pass := len(ws.stats.Passes)
	ws.emit(Event{Kind: PassBegin, Algorithm: "final-refine", Pass: pass, Graph: g})
	t0 := now()
	opt := ws.opt
	ws.vertexWeights(g, ws.k[:n])
	opt.Pool.FillFloat64(ws.vsize[:n], 1, opt.Threads)
	comm := ws.comm[:n]
	copy(comm, ws.top)
	ws.sigma.Resize(n)
	ws.csize.Resize(n)
	ws.sigma.Zero(opt.Pool, opt.Threads)
	ws.csize.Zero(opt.Pool, opt.Threads)
	opt.Pool.For(n, opt.Threads, opt.Grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			ws.sigma.Add(int(comm[i]), ws.k[i])
			ws.csize.Add(int(comm[i]), 1)
		}
	})
	var coloring *color.Coloring
	if opt.Deterministic {
		coloring = color.GreedyOn(opt.Pool, g, opt.Threads)
	}
	ps.Other = time.Since(t0)

	// The flat partition is already near-optimal: sweep at the tight
	// tolerance the threshold-scaled passes end with.
	tau := opt.Tolerance
	for i := 0; i < 4; i++ {
		tau /= opt.ToleranceDrop
	}
	t0 = now()
	ws.emit(Event{Kind: PhaseBegin, Pass: pass, Phase: "move"})
	if coloring != nil {
		ps.MoveIterations = ws.movePhaseColored(g, tau, coloring, pass, &ps)
	} else {
		ps.MoveIterations = ws.movePhase(g, tau, pass, &ps)
	}
	ws.emit(Event{Kind: PhaseEnd, Pass: pass, Phase: "move"})
	ps.Move = time.Since(t0)
	copy(ws.top, comm)
	ws.endPass("final-refine", pass, &ps)
}
