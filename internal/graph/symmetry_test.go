package graph_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/oracle"
)

// Differential tests of CSR.Validate's symmetry check against the map
// implementation it replaced, kept here as the reference. Both sum a
// pair's arcs in the same order, so their verdicts must agree exactly,
// and Validate must name the lowest violating pair.

// referenceAsymmetries is the former map-based check, extended to
// return every violating unordered pair (a < b), sorted.
func referenceAsymmetries(g *graph.CSR) [][2]uint32 {
	type pair struct{ a, b uint32 }
	acc := make(map[pair]float64)
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) == e {
				continue
			}
			p := pair{uint32(i), e}
			if p.a > p.b {
				p.a, p.b = p.b, p.a
				acc[p] -= float64(ws[k])
			} else {
				acc[p] += float64(ws[k])
			}
		}
	}
	var bad [][2]uint32
	for p, v := range acc {
		if v > 1e-3 || v < -1e-3 {
			bad = append(bad, [2]uint32{p.a, p.b})
		}
	}
	slices.SortFunc(bad, func(x, y [2]uint32) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	return bad
}

type arc struct {
	to uint32
	w  float32
}

// rowsCSR lays rows out as a compact CSR in the given (unsorted) order.
func rowsCSR(rows [][]arc) *graph.CSR {
	g := &graph.CSR{Offsets: make([]uint32, len(rows)+1)}
	for i, r := range rows {
		for _, a := range r {
			g.Edges = append(g.Edges, a.to)
			g.Weights = append(g.Weights, a.w)
		}
		g.Offsets[i+1] = uint32(len(g.Edges))
	}
	return g
}

// checkAgainstReference fails unless Validate agrees with the reference
// verdict and, on a violation, names the reference's lowest pair.
func checkAgainstReference(t *testing.T, g *graph.CSR) error {
	t.Helper()
	err := g.Validate()
	bad := referenceAsymmetries(g)
	if (err != nil) != (len(bad) > 0) {
		t.Fatalf("Validate = %v, reference violations %v", err, bad)
	}
	if err != nil {
		want := fmt.Sprintf("asymmetric arcs between %d and %d ", bad[0][0], bad[0][1])
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Validate = %v, want the lowest pair (%s)", err, want)
		}
	}
	return err
}

// perturbed returns a copy of a Builder-made graph with the weight of
// arc (u, v) raised by delta.
func perturbed(g *graph.CSR, u, v uint32, delta float32) *graph.CSR {
	c := g.Clone()
	es, _ := c.Neighbors(u)
	k := slices.Index(es, v)
	c.Weights[int(c.Offsets[u])+k] += delta
	return c
}

func TestValidateSymmetryTable(t *testing.T) {
	nan := float32(math.NaN())
	// A graph past the check's sequential cutoff, so -cpu > 1 runs the
	// parallel pass.
	b := graph.NewBuilder(3000)
	for i := uint32(0); i < 3000; i++ {
		b.AddEdge(i, (i+1)%3000, 1)
		b.AddEdge(i, (i*7+3)%3000, 2)
	}
	big := b.Build()
	cases := []struct {
		name  string
		g     *graph.CSR
		valid bool
	}{
		{"builder", graph.FromAdjacency([][]uint32{{1, 2}, {0, 2}, {0, 1}}), true},
		{"unsorted rows", rowsCSR([][]arc{{{2, 1}, {1, 3}}, {{2, 5}, {0, 3}}, {{1, 5}, {0, 1}}}), true},
		{"duplicate arcs, sums match", rowsCSR([][]arc{{{1, 1}, {1, 2}}, {{0, 3}}}), true},
		{"duplicate arcs both sides, sums match", rowsCSR([][]arc{{{1, 1}, {2, 1}, {1, 2}}, {{0, 2.5}, {0, 0.5}}, {{0, 1}}}), true},
		{"duplicate arcs, sums differ", rowsCSR([][]arc{{{1, 1}, {1, 2}}, {{0, 2.5}}}), false},
		{"self-loops", rowsCSR([][]arc{{{0, 4}, {1, 1}}, {{1, 7}, {0, 1}, {1, 2}}}), true},
		{"missing reverse arc", rowsCSR([][]arc{{{1, 1}}, {}}), false},
		{"net 0.9e-3", rowsCSR([][]arc{{{1, 1}}, {{0, 1.0009}}}), true},
		{"net 1.1e-3", rowsCSR([][]arc{{{1, 1}}, {{0, 1.0011}}}), false},
		{"net -1.1e-3", rowsCSR([][]arc{{{1, 1.0011}}, {{0, 1}}}), false},
		{"NaN both sides", rowsCSR([][]arc{{{1, nan}}, {{0, nan}}}), true},
		{"NaN one side", rowsCSR([][]arc{{{1, nan}}, {{0, 1}}}), true},
		{"several violations", rowsCSR([][]arc{{{2, 1}, {1, 1}}, {{0, 2}, {2, 1}}, {{0, 3}}}), false},
		{"large symmetric", big, true},
		{"large, two violations", perturbed(perturbed(big, 2500, 2499, 0.5), 1800, 1801, 0.002), false},
		{"large, 0.9e-3 off", perturbed(big, 1200, 1201, 0.0009), true},
		{"empty", &graph.CSR{Offsets: []uint32{0}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := checkAgainstReference(t, tc.g); (err == nil) != tc.valid {
				t.Fatalf("Validate = %v, want valid=%v", err, tc.valid)
			}
		})
	}
}

// TestCheckCSRSymmetry drives the check through oracle.CheckCSR, which
// compacts holey graphs before checking symmetry and scans weights for
// non-finite values, which the symmetry check lets through.
func TestCheckCSRSymmetry(t *testing.T) {
	holey := func() *graph.CSR {
		// Vertex 0's slot has room for 3 arcs but holds 1; the gap holds
		// arcs that would be asymmetric if they counted.
		return &graph.CSR{
			Offsets: []uint32{0, 3, 4},
			Edges:   []uint32{1, 1, 1, 0},
			Weights: []float32{2, 9, 9, 2},
			Counts:  []uint32{1, 1},
		}
	}
	asym := holey()
	asym.Weights[3] = 2.5
	cases := []struct {
		name, want string // want: "" for clean, else a violation substring
		g          *graph.CSR
	}{
		{"holey symmetric", "", holey()},
		{"holey asymmetric", "compacted: graph: asymmetric arcs between 0 and 1", asym},
		{"compact asymmetric", "asymmetric arcs between 0 and 1", rowsCSR([][]arc{{{1, 1}}, {}})},
		{"NaN weight", "non-finite weight", rowsCSR([][]arc{{{1, float32(math.NaN())}}, {{0, 1}}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, tc.g.Compact())
			r := &oracle.Report{}
			oracle.CheckCSR(r, tc.g)
			err := r.Err()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("CheckCSR = %v, want clean", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("CheckCSR = %v, want %q", err, tc.want)
			}
		})
	}
}

// fuzzCSR decodes data into a compact CSR of up to 1021 vertices, so
// the check's parallel pass runs too. Each 4-byte record (u, v, weight,
// mode) adds the arc (u, v) and, by mode, no reverse arc, an equal
// one, one split into two duplicates, or one off by a multiple of 1e-4
// — so nets land on both sides of the tolerance.
func fuzzCSR(data []byte) *graph.CSR {
	if len(data) == 0 {
		return &graph.CSR{Offsets: []uint32{0}}
	}
	n := uint32(data[0])*4 + 1
	rows := make([][]arc, n)
	for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
		u, v := uint32(rec[0])*n>>8, uint32(rec[1])*n>>8
		w := float32(rec[2]%32+1) / 8
		rows[u] = append(rows[u], arc{v, w})
		switch rec[3] % 4 {
		case 1:
			rows[v] = append(rows[v], arc{u, w})
		case 2:
			rows[v] = append(rows[v], arc{u, w / 2}, arc{u, w / 2})
		case 3:
			off := float32(int(rec[3]>>2)-32) * 1e-4
			rows[v] = append(rows[v], arc{u, w + off})
		}
	}
	return rowsCSR(rows)
}

func FuzzValidateSymmetry(f *testing.F) {
	f.Add([]byte{3, 0, 1, 7, 1, 1, 2, 3, 2})
	f.Add([]byte{5, 0, 1, 7, 0, 2, 2, 9, 3 | 41<<2, 4, 4, 1, 1})
	f.Add([]byte{9, 1, 2, 3, 3 | 42<<2, 2, 3, 5, 3 | 22<<2, 7, 8, 1, 2})
	f.Add([]byte{20, 4, 9, 31, 3 | 43<<2, 9, 4, 31, 3 | 21<<2, 5, 5, 3, 1})
	f.Add([]byte{255, 0, 255, 1, 1, 200, 100, 2, 3 | 43<<2, 128, 129, 5, 0, 129, 128, 5, 3 | 21<<2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzCSR(data))
	})
}

// BenchmarkValidateSymmetry times Validate against the map reference on
// a social graph the size of the serving benchmark's (8k vertices,
// ≈120k arcs).
func BenchmarkValidateSymmetry(b *testing.B) {
	g, _ := gen.SocialNetwork(8000, 15, 12, 0.3, 1)
	b.Run("accumulator", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if bad := referenceAsymmetries(g); len(bad) > 0 {
				b.Fatal(bad)
			}
		}
	})
}
