// Package graph provides the compressed sparse row (CSR) graph
// infrastructure GVE-Leiden operates on: weighted CSR graphs, the
// "holey" CSR variant produced by the aggregation phase, builders,
// generators' target representation, text I/O, and connectivity
// utilities.
//
// The text readers and writers here (Matrix Market, edge list) are the
// conversion import path: they validate as they parse and exist so
// cmd/gveconvert can ingest and emit external data.
// The storage format proper — the versioned, checksummed, mmap-ready
// .gvecsr container every CLI and the server load through — lives in
// the gvecsr subpackage; see FORMAT.md for the byte-level spec.
//
// Conventions (matching the paper, §3 and §5.1.2):
//
//   - Vertex ids are 32-bit (uint32); edge weights are float32 on the
//     wire and in CSR storage, while all accumulation is float64.
//   - An undirected edge {i,j}, i≠j, is stored as two arcs (i,j) and
//     (j,i), each carrying the full edge weight w.
//   - A self-loop {i,i} is stored as a single arc (i,i). Aggregation
//     folds a community's internal weight into the super-vertex
//     self-loop, so self-loops carry twice the internal undirected
//     weight — exactly the convention under which modularity is
//     preserved across passes.
//   - K_i (weighted degree) is the sum of weights of all arcs out of i,
//     self-loop counted once; m = Σ_i K_i / 2.
package graph

// Builders, generators and I/O must produce identical structures for
// identical inputs — CSR layout feeds everything downstream.
//gvevet:deterministic

import (
	"errors"
	"fmt"

	"gveleiden/internal/hashtable"
	"gveleiden/internal/parallel"
)

// MaxVertices is the largest vertex count supported by the 32-bit id
// configuration.
const MaxVertices = 1 << 31

// CSR is a weighted graph in compressed sparse row form. When Counts is
// nil the representation is compact: the arcs of vertex i occupy
// Edges[Offsets[i]:Offsets[i+1]]. When Counts is non-nil the
// representation is "holey" (the aggregation phase overestimates
// per-vertex degrees, leaving gaps): the arcs of vertex i occupy
// Edges[Offsets[i] : Offsets[i]+Counts[i]].
type CSR struct {
	Offsets []uint32  // len NumVertices+1
	Edges   []uint32  // arc targets (len = capacity, ≥ arc count when holey)
	Weights []float32 // arc weights, parallel to Edges
	Counts  []uint32  // per-vertex arc counts when holey; nil when compact
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumArcs returns the number of stored arcs (2|E| for a loop-free
// undirected graph).
func (g *CSR) NumArcs() int64 {
	if g.Counts == nil {
		return int64(len(g.Edges))
	}
	var n int64
	for _, c := range g.Counts {
		n += int64(c)
	}
	return n
}

// Degree returns the number of arcs out of vertex i.
func (g *CSR) Degree(i uint32) uint32 {
	if g.Counts != nil {
		return g.Counts[i]
	}
	return g.Offsets[i+1] - g.Offsets[i]
}

// Neighbors returns the arc targets and weights of vertex i. The slices
// alias the graph's storage and must not be modified.
func (g *CSR) Neighbors(i uint32) ([]uint32, []float32) {
	lo := g.Offsets[i]
	hi := lo + g.Degree(i)
	return g.Edges[lo:hi], g.Weights[lo:hi]
}

// VertexWeight returns K_i, the sum of weights of all arcs out of i
// (self-loop counted once), accumulated in float64.
func (g *CSR) VertexWeight(i uint32) float64 {
	_, ws := g.Neighbors(i)
	var k float64
	for _, w := range ws {
		k += float64(w)
	}
	return k
}

// TotalWeight returns 2m = Σ_i K_i.
func (g *CSR) TotalWeight() float64 {
	var s float64
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		s += g.VertexWeight(uint32(i))
	}
	return s
}

// HasArc reports whether an arc (i, j) exists.
func (g *CSR) HasArc(i, j uint32) bool {
	es, _ := g.Neighbors(i)
	for _, e := range es {
		if e == j {
			return true
		}
	}
	return false
}

// ArcWeight returns the total weight of arcs (i, j), 0 if none exist.
func (g *CSR) ArcWeight(i, j uint32) float64 {
	es, ws := g.Neighbors(i)
	var t float64
	for k, e := range es {
		if e == j {
			t += float64(ws[k])
		}
	}
	return t
}

// Compact returns a compact (gap-free) copy of a holey CSR. For an
// already compact graph it returns g unchanged.
func (g *CSR) Compact() *CSR {
	if g.Counts == nil {
		return g
	}
	n := g.NumVertices()
	off := make([]uint32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + g.Counts[i]
	}
	m := off[n]
	out := &CSR{
		Offsets: off,
		Edges:   make([]uint32, m),
		Weights: make([]float32, m),
	}
	for i := 0; i < n; i++ {
		lo := g.Offsets[i]
		c := g.Counts[i]
		copy(out.Edges[off[i]:off[i+1]], g.Edges[lo:lo+c])
		copy(out.Weights[off[i]:off[i+1]], g.Weights[lo:lo+c])
	}
	return out
}

// Clone returns a deep copy of g.
func (g *CSR) Clone() *CSR {
	out := &CSR{
		Offsets: append([]uint32(nil), g.Offsets...),
		Edges:   append([]uint32(nil), g.Edges...),
		Weights: append([]float32(nil), g.Weights...),
	}
	if g.Counts != nil {
		out.Counts = append([]uint32(nil), g.Counts...)
	}
	return out
}

// Validate checks structural invariants: monotone offsets, in-range
// targets, and — for compact graphs — symmetry of the weighted arc
// multiset (the arcs (i,j), i≠j, weigh what the arcs (j,i) weigh, to
// within 1e-3; see checkSymmetry). It returns a descriptive error on
// the first violation.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return errors.New("graph: offsets array must have length ≥ 1")
	}
	if len(g.Edges) != len(g.Weights) {
		return fmt.Errorf("graph: edges/weights length mismatch: %d vs %d", len(g.Edges), len(g.Weights))
	}
	for i := 0; i < n; i++ {
		if g.Offsets[i] > g.Offsets[i+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", i)
		}
		if g.Counts != nil && g.Offsets[i]+g.Counts[i] > g.Offsets[i+1] {
			return fmt.Errorf("graph: holey count overflows slot of vertex %d", i)
		}
	}
	if int(g.Offsets[n]) > len(g.Edges) {
		return fmt.Errorf("graph: final offset %d exceeds edge storage %d", g.Offsets[n], len(g.Edges))
	}
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		for _, e := range es {
			if int(e) >= n {
				return fmt.Errorf("graph: arc (%d,%d) target out of range (n=%d)", i, e, n)
			}
		}
	}
	if g.Counts == nil {
		if err := g.checkSymmetry(); err != nil {
			return err
		}
	}
	return nil
}

// checkSymmetry verifies that the weighted arc multiset is symmetric:
// for every unordered pair {a, b}, a < b, the summed weight of the arcs
// (a,b) minus that of the arcs (b,a) must lie within ±symmetryTol.
// Self-loops are exempt; rows may be unsorted and repeat targets.
//
// The check runs on every serve swap (oracle.CheckCSR in the gate), so
// it uses the move phase's tools instead of a map: a counting-sort
// transpose lists, for each vertex a, the arcs (b,a) with b > a in
// increasing b; then a parallel pass over the vertices adds a's
// out-weights towards every b > a and subtracts those in-arcs in a
// per-thread dense accumulator, and checks each touched entry. Each
// pair is judged once, at its lower endpoint, and summed in the order a
// sequential scan of the rows meets its arcs. Of several violating
// pairs the lowest (a, b) is reported, whatever the schedule. Scratch
// is the move phase's: O(T·N) for the accumulators, plus the transpose
// of about half the arcs.
func (g *CSR) checkSymmetry() error {
	n := g.NumVertices()
	off, edges, weights := g.Offsets, g.Edges, g.Weights
	inOff := make([]uint32, n+1)
	for u := 0; u < n; u++ {
		for _, v := range edges[off[u]:off[u+1]] {
			if v < uint32(u) {
				inOff[v+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	in := make([]inArc, inOff[n])
	// Place with inOff[v] as v's cursor, which leaves it at v's end, the
	// start of v+1; shifting by one restores the offsets.
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		for k, v := range edges[lo:hi] {
			if v < uint32(u) {
				in[inOff[v]] = inArc{uint32(u), weights[lo+uint32(k)]}
				inOff[v]++
			}
		}
	}
	copy(inOff[1:], inOff[:n])
	inOff[0] = 0

	const grain = 256
	threads := parallel.DefaultThreads()
	if n <= grain {
		threads = 1
	}
	accs := hashtable.PerThread(n, threads)
	worst := make([]asymmetry, threads)
	parallel.Default().For(n, threads, grain, func(lo, hi, tid int) {
		acc, w := accs[tid], &worst[tid]
		for a := uint32(lo); a < uint32(hi); a++ {
			s, e := off[a], off[a+1]
			for k, b := range edges[s:e] {
				if b > a {
					acc.Add(b, float64(weights[s+uint32(k)]))
				}
			}
			for _, x := range in[inOff[a]:inOff[a+1]] {
				acc.Add(x.src, -float64(x.w))
			}
			for _, b := range acc.Keys() {
				if net := acc.Get(b); net > symmetryTol || net < -symmetryTol {
					w.note(a, b, net)
				}
			}
			acc.Clear()
		}
	})
	var first asymmetry
	for _, w := range worst {
		if w.found {
			first.note(w.a, w.b, w.net)
		}
	}
	if first.found {
		return fmt.Errorf("graph: asymmetric arcs between %d and %d (net %g)", first.a, first.b, first.net)
	}
	return nil
}

// inArc is one transposed arc: its source and weight.
type inArc struct {
	src uint32
	w   float32
}

// symmetryTol bounds the net weight of an unordered pair's two arc
// directions that checkSymmetry accepts as float32 rounding.
const symmetryTol = 1e-3

// asymmetry is the lowest violating pair one worker has seen.
type asymmetry struct {
	a, b  uint32
	net   float64
	found bool
}

// note keeps (a, b) if it precedes the pair held so far.
func (x *asymmetry) note(a, b uint32, net float64) {
	if !x.found || a < x.a || (a == x.a && b < x.b) {
		*x = asymmetry{a: a, b: b, net: net, found: true}
	}
}

// DegreeStats returns the minimum, maximum and average degree.
func (g *CSR) DegreeStats() (min, max uint32, avg float64) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0, 0
	}
	min = g.Degree(0)
	var total int64
	for i := 0; i < n; i++ {
		d := g.Degree(uint32(i))
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		total += int64(d)
	}
	return min, max, float64(total) / float64(n)
}

// NumUndirectedEdges returns |E| counting each undirected edge once
// (self-loops count once).
func (g *CSR) NumUndirectedEdges() int64 {
	n := g.NumVertices()
	var loops, arcs int64
	for i := 0; i < n; i++ {
		es, _ := g.Neighbors(uint32(i))
		arcs += int64(len(es))
		for _, e := range es {
			if e == uint32(i) {
				loops++
			}
		}
	}
	return (arcs-loops)/2 + loops
}
