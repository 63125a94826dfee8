package stream

import (
	"fmt"
	"math"
	"slices"

	"gveleiden/internal/graph"
)

// Graph is a mutable weighted undirected graph. Not safe for concurrent
// mutation; snapshots are independent of later mutations.
type Graph struct {
	adj   []map[uint32]float32 // adj[u][v] = weight (symmetric; loops on u only)
	edges int64                // undirected edge count (loops count once)

	// Snapshot patches the CSR it returned last (nil after New and
	// FromCSR) instead of rebuilding: touched[u] marks the rows changed
	// since, and rows past last's end count as touched.
	last    *graph.CSR
	touched []bool
}

// New returns a mutable graph with n initial vertices.
func New(n int) *Graph {
	return &Graph{adj: make([]map[uint32]float32, n), touched: make([]bool, n)}
}

// FromCSR returns a mutable copy of a CSR graph. CSR weights are finite
// by construction (the readers and builders validate them), so AddEdge
// cannot fail here; an edge whose CSR weight is ≤ 0 is dropped, per
// AddEdge's cancellation rule.
func FromCSR(g *graph.CSR) *Graph {
	s := New(g.NumVertices())
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) <= e {
				_ = s.AddEdge(uint32(i), e, ws[k])
			}
		}
	}
	return s
}

// NumVertices returns the current vertex count.
func (s *Graph) NumVertices() int { return len(s.adj) }

// NumEdges returns the current undirected edge count.
func (s *Graph) NumEdges() int64 { return s.edges }

// ensure grows the vertex set to cover id v. Callers bound v below
// graph.MaxVertices, so the new length cannot wrap.
func (s *Graph) ensure(v uint32) {
	if n := int(v) + 1; n > len(s.adj) {
		s.adj = append(s.adj, make([]map[uint32]float32, n-len(s.adj))...)
		s.touched = append(s.touched, make([]bool, n-len(s.touched))...)
	}
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (s *Graph) HasEdge(u, v uint32) bool {
	if int(u) >= len(s.adj) || s.adj[u] == nil {
		return false
	}
	_, ok := s.adj[u][v]
	return ok
}

// Weight returns the weight of edge {u,v}, 0 if absent.
func (s *Graph) Weight(u, v uint32) float32 {
	if int(u) >= len(s.adj) || s.adj[u] == nil {
		return 0
	}
	return s.adj[u][v]
}

// AddEdge inserts {u,v} with weight w, adding w to an existing edge.
// Self-loops are allowed. New endpoints grow the vertex set; an
// endpoint at or above graph.MaxVertices is rejected with a
// *graph.VertexRangeError.
//
// Weights follow the unified delta semantics (graph.EvaluateDelta): a
// non-finite w, or a summed weight that overflows float32, is rejected
// with an error and the graph is untouched; a summed weight of zero or
// below cancels the edge entirely, so the graph can never materialize a
// CSR the readers' weight validation would reject.
func (s *Graph) AddEdge(u, v uint32, w float32) error {
	if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
		return fmt.Errorf("stream: edge {%d,%d}: non-finite weight %v", u, v, w)
	}
	if err := graph.CheckVertexIDs(u, v); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	sum := s.Weight(u, v) + w
	if math.IsInf(float64(sum), 0) {
		return fmt.Errorf("stream: edge {%d,%d}: summed weight overflows float32", u, v)
	}
	s.ensure(u)
	s.ensure(v)
	if sum <= 0 {
		s.dropEdge(u, v)
		return nil
	}
	s.setEdge(u, v, sum)
	return nil
}

// setEdge stores {u,v} with exactly weight w (both directions), growing
// nothing: callers ensure the vertex set first.
func (s *Graph) setEdge(u, v uint32, w float32) {
	s.touched[u], s.touched[v] = true, true
	if s.adj[u] == nil {
		s.adj[u] = make(map[uint32]float32, 4)
	}
	if _, exists := s.adj[u][v]; !exists {
		s.edges++
	}
	s.adj[u][v] = w
	if u != v {
		if s.adj[v] == nil {
			s.adj[v] = make(map[uint32]float32, 4)
		}
		s.adj[v][u] = w
	}
}

// dropEdge removes {u,v} if present (both directions).
func (s *Graph) dropEdge(u, v uint32) {
	if int(u) >= len(s.adj) || s.adj[u] == nil {
		return
	}
	if _, ok := s.adj[u][v]; !ok {
		return
	}
	s.touched[u], s.touched[v] = true, true
	delete(s.adj[u], v)
	if u != v && int(v) < len(s.adj) && s.adj[v] != nil {
		delete(s.adj[v], u)
	}
	s.edges--
}

// RemoveEdge deletes {u,v} entirely, reporting whether it existed.
func (s *Graph) RemoveEdge(u, v uint32) bool {
	if !s.HasEdge(u, v) {
		return false
	}
	s.dropEdge(u, v)
	return true
}

// Degree returns u's current neighbour count (loop counts once).
func (s *Graph) Degree(u uint32) int {
	if int(u) >= len(s.adj) {
		return 0
	}
	return len(s.adj[u])
}

// Apply applies a batch under the unified delta semantics shared with
// graph.ApplyDelta (see graph.EvaluateDelta): deletions first, then
// insertions; every deletion must name a distinct existing edge;
// insertion weights must be finite. The whole batch is validated before
// anything mutates, so a rejected batch is a no-op — the graph stays
// bit-identical, which is what lets a long-running ingest path survive
// a desynchronized batch.
func (s *Graph) Apply(insertions, deletions []graph.Edge) error {
	lookup := func(u, v uint32) (float32, bool) {
		if int(u) >= len(s.adj) || s.adj[u] == nil {
			return 0, false
		}
		w, ok := s.adj[u][v]
		return w, ok
	}
	touched, err := graph.EvaluateDelta(lookup, insertions, deletions)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	// The batch is valid: apply the final per-pair states. Insertions
	// grow the vertex set even when their edge cancelled within the
	// batch, matching a sequential AddEdge replay.
	for _, e := range insertions {
		s.ensure(e.U)
		s.ensure(e.V)
	}
	for k, st := range touched {
		u, v := graph.SplitPairKey(k)
		if st.Present {
			s.setEdge(u, v, st.W)
		} else {
			s.dropEdge(u, v)
		}
	}
	return nil
}

// Snapshot materializes the current state as a compact CSR with sorted
// adjacency — the input format of the detection algorithms — identical
// to what a graph.Builder makes of the same edge set.
//
// It costs what the changes since the previous call cost, plus a copy:
// the offsets are the prefix sum of the row lengths, rows untouched
// since then are copied from the CSR it returned then, and only touched
// rows are refilled from the maps and sorted. The first call after New
// or FromCSR fills every row, so the CSR a Graph was copied from is
// never aliased. The returned CSR must not be modified: the next call
// reads it.
func (s *Graph) Snapshot() *graph.CSR {
	n := len(s.adj)
	off := make([]uint32, n+1)
	for u, row := range s.adj {
		off[u+1] = off[u] + uint32(len(row))
	}
	g := &graph.CSR{Offsets: off, Edges: make([]uint32, off[n]), Weights: make([]float32, off[n])}
	prev, kept := s.last, 0
	if prev != nil {
		kept = prev.NumVertices()
	}
	for u := 0; u < n; {
		if u >= kept || s.touched[u] {
			s.fillRow(g, u)
			u++
			continue
		}
		// A run of untouched rows keeps its degrees, so it is one
		// contiguous block in both CSRs.
		v := u + 1
		for v < kept && !s.touched[v] {
			v++
		}
		lo, hi := prev.Offsets[u], prev.Offsets[v]
		copy(g.Edges[off[u]:off[v]], prev.Edges[lo:hi])
		copy(g.Weights[off[u]:off[v]], prev.Weights[lo:hi])
		u = v
	}
	clear(s.touched)
	s.last = g
	return g
}

// fillRow writes row u of g, whose offsets are set, from adj[u].
func (s *Graph) fillRow(g *graph.CSR, u int) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	es, ws := g.Edges[lo:hi], g.Weights[lo:hi]
	row := s.adj[u]
	k := 0
	for v := range row {
		es[k] = v
		k++
	}
	slices.Sort(es)
	for k, v := range es {
		ws[k] = row[v]
	}
}
