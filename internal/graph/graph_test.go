package graph

import (
	"errors"
	"math"
	"testing"
)

// triangle-pair: two triangles {0,1,2} and {3,4,5} joined by edge 2-3.
func trianglePair() *CSR {
	return FromAdjacency([][]uint32{
		{1, 2}, {0, 2}, {0, 1, 3}, {2, 4, 5}, {3, 5}, {3, 4},
	})
}

func TestCSRBasics(t *testing.T) {
	g := trianglePair()
	if g.NumVertices() != 6 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumArcs() != 14 { // 7 undirected edges
		t.Fatalf("arcs = %d", g.NumArcs())
	}
	if g.NumUndirectedEdges() != 7 {
		t.Fatalf("|E| = %d", g.NumUndirectedEdges())
	}
	if g.Degree(2) != 3 || g.Degree(0) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(2), g.Degree(0))
	}
	es, ws := g.Neighbors(2)
	if len(es) != 3 || len(ws) != 3 {
		t.Fatalf("neighbors(2) = %v", es)
	}
	// Builder sorts adjacency lists.
	want := []uint32{0, 1, 3}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("neighbors(2) = %v, want %v", es, want)
		}
	}
	if !g.HasArc(2, 3) || g.HasArc(0, 5) {
		t.Fatal("HasArc wrong")
	}
	if g.ArcWeight(2, 3) != 1 {
		t.Fatalf("arc weight = %v", g.ArcWeight(2, 3))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestVertexAndTotalWeight(t *testing.T) {
	g := trianglePair()
	if got := g.VertexWeight(2); got != 3 {
		t.Fatalf("K_2 = %v", got)
	}
	if got := g.TotalWeight(); got != 14 { // 2m = 2·|E| for unit weights
		t.Fatalf("2m = %v", got)
	}
}

func TestSelfLoopConventions(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 0, 3) // self-loop: one arc, counted once in K
	b.AddEdge(0, 1, 2)
	g := b.Build()
	if g.NumArcs() != 3 {
		t.Fatalf("arcs = %d (self-loop must be a single arc)", g.NumArcs())
	}
	if got := g.VertexWeight(0); got != 5 {
		t.Fatalf("K_0 = %v, want 5 (loop once + edge)", got)
	}
	if g.NumUndirectedEdges() != 2 {
		t.Fatalf("|E| = %d", g.NumUndirectedEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestHoleyCSR(t *testing.T) {
	// Hand-build a holey CSR: vertex 0 has capacity 3 but only 2 arcs.
	g := &CSR{
		Offsets: []uint32{0, 3, 5},
		Counts:  []uint32{2, 2},
		Edges:   []uint32{1, 1, 99, 0, 0},
		Weights: []float32{1, 2, 0, 1, 2},
	}
	if g.Degree(0) != 2 {
		t.Fatalf("holey degree = %d", g.Degree(0))
	}
	es, ws := g.Neighbors(0)
	if len(es) != 2 || es[1] != 1 || ws[1] != 2 {
		t.Fatalf("holey neighbors = %v %v", es, ws)
	}
	if g.NumArcs() != 4 {
		t.Fatalf("holey arcs = %d", g.NumArcs())
	}
	c := g.Compact()
	if c.Counts != nil {
		t.Fatal("compact graph must have nil Counts")
	}
	if c.NumArcs() != 4 || len(c.Edges) != 4 {
		t.Fatalf("compacted arcs = %d", c.NumArcs())
	}
	if c.Edges[2] == 99 {
		t.Fatal("compact copied a gap entry")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("compacted graph invalid: %v", err)
	}
	// Compact of a compact graph returns the receiver.
	if c.Compact() != c {
		t.Fatal("Compact on compact graph must be identity")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := trianglePair()
	c := g.Clone()
	c.Weights[0] = 42
	if g.Weights[0] == 42 {
		t.Fatal("clone shares weight storage")
	}
}

func TestValidateCatchesBadOffsets(t *testing.T) {
	g := &CSR{Offsets: []uint32{0, 2, 1}, Edges: []uint32{1, 0}, Weights: []float32{1, 1}}
	if err := g.Validate(); err == nil {
		t.Fatal("non-monotone offsets must fail validation")
	}
}

func TestValidateCatchesOutOfRangeTarget(t *testing.T) {
	g := &CSR{Offsets: []uint32{0, 1}, Edges: []uint32{5}, Weights: []float32{1}}
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range arc target must fail validation")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &CSR{
		Offsets: []uint32{0, 1, 1},
		Edges:   []uint32{1},
		Weights: []float32{1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("one-directional arc must fail validation")
	}
}

func TestValidateCatchesWeightMismatch(t *testing.T) {
	g := &CSR{Offsets: []uint32{0, 0}, Edges: []uint32{0}, Weights: nil}
	if err := g.Validate(); err == nil {
		t.Fatal("edges/weights length mismatch must fail validation")
	}
}

func TestDegreeStats(t *testing.T) {
	g := trianglePair()
	min, max, avg := g.DegreeStats()
	if min != 2 || max != 3 {
		t.Fatalf("min/max = %d/%d", min, max)
	}
	if math.Abs(avg-14.0/6) > 1e-12 {
		t.Fatalf("avg = %v", avg)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromAdjacency(nil)
	if g.NumVertices() != 0 || g.NumArcs() != 0 {
		t.Fatal("empty graph wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	min, max, avg := g.DegreeStats()
	if min != 0 || max != 0 || avg != 0 {
		t.Fatal("empty degree stats")
	}
}

func TestValidateHoleyCountOverflow(t *testing.T) {
	g := &CSR{
		Offsets: []uint32{0, 2, 4},
		Counts:  []uint32{3, 1}, // count 3 overflows slot of size 2
		Edges:   []uint32{1, 1, 0, 0},
		Weights: []float32{1, 1, 1, 1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("holey count overflow must fail validation")
	}
}

func TestNumUndirectedEdgesWithLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 1, 1) // loop
	b.AddEdge(1, 2, 1)
	g := b.Build()
	if got := g.NumUndirectedEdges(); got != 3 {
		t.Fatalf("|E| = %d, want 3 (loop counts once)", got)
	}
}

// TestDeltaRejectsHugeVertexIDs: an endpoint at or above MaxVertices
// fails the batch with a *VertexRangeError before any lookup or build
// (the Builder would panic on it, and growing a graph to it would
// wrap or exhaust memory).
func TestDeltaRejectsHugeVertexIDs(t *testing.T) {
	g := FromAdjacency([][]uint32{{1}, {0}})
	for _, id := range []uint32{MaxVertices, 1<<32 - 1} {
		for _, b := range []struct{ ins, del []Edge }{
			{ins: []Edge{{U: 0, V: 1, W: 1}, {U: id, V: 0, W: 1}}},
			{ins: []Edge{{U: 0, V: id, W: 1}}},
			{del: []Edge{{U: id, V: 1}}},
		} {
			_, err := ApplyDelta(g, b.ins, b.del)
			var vr *VertexRangeError
			if !errors.As(err, &vr) {
				t.Fatalf("id %d: error = %v, want *VertexRangeError", id, err)
			}
		}
	}
}
