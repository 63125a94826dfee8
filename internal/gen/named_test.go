package gen

import (
	"math"
	"testing"

	"gveleiden/internal/graph"
)

// TestNamedMatchesDirectCalls pins every -gen name to the generator
// call and arguments the CLIs used before the table existed, so -gen
// graphs stay bit-identical.
func TestNamedMatchesDirectCalls(t *testing.T) {
	const n, seed = 1000, 7
	web, _ := WebGraph(n, 20, seed)
	social, _ := SocialNetwork(n, 20, 64, 0.35, seed)
	road, _ := RoadNetwork(n, seed)
	kmer, _ := KmerGraph(n, seed)
	want := map[string]*graph.CSR{
		"web":    web,
		"social": social,
		"road":   road,
		"kmer":   kmer,
		"er":     ErdosRenyi(n, n*8, seed),
		"ba":     BarabasiAlbert(n, 8, seed),
		"rmat":   RMAT(10, n*8, 0, 0, 0, seed), // 2^10 is the first power of two ≥ n
	}
	for name, w := range want {
		g, err := Named(name, n, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", name, err)
		}
		if !sameCSR(g, w) {
			t.Fatalf("%s: Named graph differs from the direct generator call", name)
		}
	}
	for _, name := range []string{"", "grid", "Web", "nope"} {
		if g, err := Named(name, n, seed); err == nil {
			t.Fatalf("Named(%q) = %d vertices, want an error", name, g.NumVertices())
		}
	}
}

func sameCSR(a, b *graph.CSR) bool {
	if len(a.Offsets) != len(b.Offsets) || len(a.Edges) != len(b.Edges) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || math.Float32bits(a.Weights[i]) != math.Float32bits(b.Weights[i]) {
			return false
		}
	}
	return true
}
