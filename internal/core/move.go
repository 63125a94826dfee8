package core

import (
	"gveleiden/internal/graph"
	"gveleiden/internal/hashtable"
)

// movePhase is the local-moving phase of GVE-Leiden (Algorithm 2). It
// iteratively and asynchronously moves vertices to the neighbouring
// community with maximum delta-modularity, using flag-based vertex
// pruning: only vertices whose neighbourhood changed since they were
// last examined are reprocessed. Work counters (scanned, pruned, moves,
// ΔQ per iteration) accumulate into ps; each iteration emits an
// IterBegin and an IterEnd event. Returns l_i, the number of iterations
// performed.
func (ws *workspace) movePhase(g *graph.CSR, tau float64, pass int, ps *PassStats) int {
	n := g.NumVertices()
	threads, grain := ws.opt.Threads, ws.opt.Grain
	comm := ws.comm[:n]
	ws.flags.Resize(n)
	if ws.frontier != nil {
		// Dynamic-frontier mode: only the vertices touched by the batch
		// start unprocessed; the flags propagate outward as they move.
		ws.flags.SetAll(ws.opt.Pool, false, threads)
		for _, v := range ws.frontier {
			ws.flags.Set(int(v), true)
		}
		ws.frontier = nil
	} else {
		ws.flags.SetAll(ws.opt.Pool, true, threads) // mark all vertices unprocessed
	}
	// Asynchronous threads decide against community totals and
	// memberships that other threads are changing, so the sum of their
	// decision-time gains can overstate what actually lands. With more
	// than one thread the phase therefore reports its realized gain, the
	// quality difference across the phase; a single thread's estimates
	// are exact and cost nothing.
	realized := threads > 1
	var q0 float64
	if realized {
		if ws.phiNext == g {
			q0 = ws.phi // the previous pass measured this partition
		} else {
			q0 = ws.partitionQuality(g, comm)
		}
	}
	ws.phiNext = nil
	dq0 := ps.DeltaQ
	iters := 0
	for it := 0; it < ws.opt.MaxIterations; it++ {
		ws.zeroDQ()
		ws.zeroMC()
		ws.emit(Event{Kind: IterBegin, Pass: pass, Iteration: it})
		ws.opt.Pool.For(n, threads, grain, func(lo, hi, tid int) {
			h := ws.tables[tid]
			f := &ws.flats[tid]
			var local float64
			var scanned, pruned, flat, moves int64
			for i := lo; i < hi; i++ {
				u := uint32(i)
				if !ws.opt.DisablePruning {
					if !ws.flags.Get(i) {
						pruned++
						continue
					}
					ws.flags.Set(i, false) // prune: mark processed
				}
				scanned++
				var dq float64
				if !ws.opt.DisableFlatScan && g.Degree(u) <= hashtable.FlatCap {
					dq = ws.moveVertexFlat(g, f, comm, u)
					flat++
				} else {
					dq = ws.moveVertex(g, h, comm, u)
				}
				if dq > 0 {
					moves++
				}
				local += dq
			}
			ws.dq[tid].V += local
			mc := &ws.mc[tid].V
			mc.scanned += scanned
			mc.pruned += pruned
			mc.flat += flat
			mc.moves += moves
		})
		iters++
		dq := ws.sumDQ()
		ws.recordIteration(pass, it, dq, ps)
		if dq <= tau { // locally converged?
			break
		}
	}
	if realized {
		ws.phi = ws.partitionQuality(g, comm)
		ps.DeltaQ = dq0 + ws.phi - q0
	}
	return iters
}

// partitionQuality evaluates partition comm of g under the configured
// objective, up to a constant that depends only on g:
//
//	modularity: Σ_c K_in(c)/2m − γ·Σ_c²/4m²
//	CPM:        Σ_c [K_in(c) − γ·n_c²]/2m
//
// where K_in(c) is the arc weight inside c. These are the functions
// whose differences ws.delta measures, so a phase's gain is the
// difference of two calls. It reads ws.sigma and ws.csize, so it must
// run between parallel regions, never inside one.
func (ws *workspace) partitionQuality(g *graph.CSR, comm []uint32) float64 {
	n := g.NumVertices()
	cpm := ws.opt.Objective == ObjectiveCPM
	// Both forms are [K_in − γ·Σ t_c²/div]/2m, with t_c = Σ_c, div = 2m
	// for modularity and t_c = n_c, div = 1 for CPM.
	div := 2 * ws.m
	if cpm {
		div = 1
	}
	ws.zeroDQ()
	ws.opt.Pool.For(n, ws.opt.Threads, ws.opt.Grain, func(lo, hi, tid int) {
		var in, sq float64
		for i := lo; i < hi; i++ {
			u := uint32(i)
			c := commLoad(comm, u)
			es, wts := g.Neighbors(u)
			for k, e := range es {
				if commLoad(comm, e) == c {
					in += float64(wts[k])
				}
			}
			// Community ids are vertex ids of this level, so community i's
			// total is visited exactly once across the loop.
			var t float64
			if cpm {
				t = ws.csize.Get(i)
			} else {
				t = ws.sigma.Get(i)
			}
			sq += t * t
		}
		ws.dq[tid].V += in - ws.opt.Resolution*sq/div
	})
	return ws.sumDQ() / (2 * ws.m)
}

// recordIteration folds one local-moving iteration's merged counters
// into ps and emits its IterEnd event. Shared by the asynchronous and
// the deterministic (colored) move phases.
func (ws *workspace) recordIteration(pass, it int, dq float64, ps *PassStats) {
	c := ws.sumMC()
	ps.Scanned += c.scanned
	ps.Pruned += c.pruned
	ps.FlatScans += c.flat
	ps.Moves += c.moves
	ps.IterMoves = append(ps.IterMoves, c.moves)
	ps.DeltaQ += dq
	ws.emit(Event{Kind: IterEnd, Pass: pass, Iteration: it, Iter: IterStats{
		Scanned: c.scanned, Pruned: c.pruned, FlatScans: c.flat, Moves: c.moves, DeltaQ: dq,
	}})
}

// moveVertex examines one vertex: scans the communities connected to it
// (excluding the self-loop), picks the best move, and applies it
// atomically. Returns the delta-modularity gained (0 when the vertex
// stays).
//
//gvevet:contract noescape
func (ws *workspace) moveVertex(g *graph.CSR, h *hashtable.Accumulator, comm []uint32, u uint32) float64 {
	d := commLoad(comm, u)
	h.Clear()
	scanCommunities(h, g, comm, u, false)
	ki := ws.k[u]
	si := ws.vsize[u]
	kid := h.Get(d)
	sd := ws.sigma.Get(int(d))
	nd := ws.csize.Get(int(d))
	bestC := d
	bestDQ := 0.0
	for _, c := range h.Keys() {
		if c == d {
			continue
		}
		dq := ws.delta(h.Get(c), kid, ki, ws.sigma.Get(int(c)), sd, si, ws.csize.Get(int(c)), nd)
		if dq > bestDQ || (dq == bestDQ && dq > 0 && c < bestC) {
			bestDQ = dq
			bestC = c
		}
	}
	if bestDQ <= 0 || bestC == d {
		return 0
	}
	ws.applyMove(g, comm, u, d, bestC, ki, si)
	return bestDQ
}

// moveVertexFlat is moveVertex for low-degree vertices (degree ≤
// hashtable.FlatCap): the community-weight accumulation runs in a
// fixed-size flat array searched linearly instead of the dense stamped
// hashtable. A vertex of degree d touches at most d distinct
// communities, so the gate guarantees the array never overflows; and
// the best-community tie-break is order-independent (strictly greater
// gain, or equal gain and lower community id, wins), so the flat path
// picks exactly the community moveVertex would.
//
//gvevet:contract noescape
func (ws *workspace) moveVertexFlat(g *graph.CSR, f *hashtable.Flat, comm []uint32, u uint32) float64 {
	d := commLoad(comm, u)
	f.Reset()
	es, wts := g.Neighbors(u)
	for k, e := range es {
		if e == u {
			continue
		}
		f.Add(commLoad(comm, e), float64(wts[k]))
	}
	ki := ws.k[u]
	si := ws.vsize[u]
	kid := f.Get(d)
	sd := ws.sigma.Get(int(d))
	nd := ws.csize.Get(int(d))
	bestC := d
	bestDQ := 0.0
	for i := 0; i < f.Len(); i++ {
		c := f.Key(i)
		if c == d {
			continue
		}
		dq := ws.delta(f.Val(i), kid, ki, ws.sigma.Get(int(c)), sd, si, ws.csize.Get(int(c)), nd)
		if dq > bestDQ || (dq == bestDQ && dq > 0 && c < bestC) {
			bestDQ = dq
			bestC = c
		}
	}
	if bestDQ <= 0 || bestC == d {
		return 0
	}
	ws.applyMove(g, comm, u, d, bestC, ki, si)
	return bestDQ
}

// applyMove commits the move of u from community d to bestC: updates
// the community totals atomically, publishes the new membership, and
// re-flags the neighbours whose best community could have changed.
// Marking is selective (Sahu's tighter pruning): a neighbour already in
// the destination community only got more attached to it by u's
// arrival, so its currently-best move cannot have flipped — only
// neighbours elsewhere need re-examination. The membership reads are
// racy snapshots, which is fine for a pruning heuristic: a stale read
// at worst re-flags a vertex that rescans and stays put.
//
//gvevet:contract noescape
func (ws *workspace) applyMove(g *graph.CSR, comm []uint32, u, d, bestC uint32, ki, si float64) {
	ws.sigma.Add(int(d), -ki) // Σ'[C'[i]] -= K'[i]
	ws.sigma.Add(int(bestC), ki)
	ws.csize.Add(int(d), -si)
	ws.csize.Add(int(bestC), si)
	commStore(comm, u, bestC)
	es, _ := g.Neighbors(u)
	for _, e := range es {
		if commLoad(comm, e) != bestC {
			ws.flags.Set(int(e), true)
		}
	}
}

// scanCommunities accumulates, into h, the total edge weight between
// vertex u and each community adjacent to it (Algorithm 2, lines 17-21).
// With self=false the self-loop is skipped (local moving / refinement);
// with self=true it is included (aggregation).
//
//gvevet:contract noescape
func scanCommunities(h *hashtable.Accumulator, g *graph.CSR, comm []uint32, u uint32, self bool) {
	es, wts := g.Neighbors(u)
	for k, e := range es {
		if !self && e == u {
			continue
		}
		h.Add(commLoad(comm, e), float64(wts[k]))
	}
}
