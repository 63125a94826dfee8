package stream

import (
	"math"
	"slices"
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
)

// builderSnapshot is the former Snapshot: a full graph.Builder rebuild
// of the current edge set, the reference the row-patching Snapshot must
// match bit for bit.
func builderSnapshot(s *Graph) *graph.CSR {
	n := len(s.adj)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v, w := range s.adj[u] {
			if uint32(u) <= v {
				b.AddEdge(uint32(u), v, w)
			}
		}
	}
	return b.Build()
}

// assertBitIdentical fails unless a and b are bit-identical CSRs: equal
// offsets, edges and weight bit patterns.
func assertBitIdentical(t *testing.T, what string, a, b *graph.CSR) {
	t.Helper()
	bits := func(ws []float32) []uint32 {
		out := make([]uint32, len(ws))
		for i, w := range ws {
			out[i] = math.Float32bits(w)
		}
		return out
	}
	if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Edges, b.Edges) ||
		!slices.Equal(bits(a.Weights), bits(b.Weights)) || (a.Counts == nil) != (b.Counts == nil) {
		t.Fatalf("%s: CSRs differ (n=%d/%d, arcs=%d/%d)", what,
			a.NumVertices(), b.NumVertices(), len(a.Edges), len(b.Edges))
	}
}

// TestSnapshotPatchMatchesBuilder runs random Apply sequences — vertex
// growth, cancellation to ≤0, self-loops, rejected batches, direct
// AddEdge/RemoveEdge calls and back-to-back Snapshot calls — and checks
// every snapshot against a Builder rebuild, and every earlier snapshot
// against a copy taken when it was returned.
func TestSnapshotPatchMatchesBuilder(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := seed*0x9E3779B97F4A7C15 + 1
		next := func(k uint64) uint32 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return uint32(rng % k)
		}
		var s *Graph
		if seed%3 == 0 {
			s = New(0)
		} else {
			g, _ := gen.SocialNetwork(400, 8, 5, 0.3, seed)
			s = FromCSR(g)
		}
		type kept struct{ snap, copy *graph.CSR }
		var history []kept
		snapshot := func() {
			g := s.Snapshot()
			assertBitIdentical(t, "vs builder", g, builderSnapshot(s))
			history = append(history, kept{g, g.Clone()})
		}
		snapshot()
		for step := 1; step <= 40; step++ {
			n := uint64(s.NumVertices()) + 1
			var ins, del []graph.Edge
			for i := next(12); i > 0; i-- {
				u, v := next(n+3), next(n+3) // a few past the end: growth
				w := float32(next(4) + 1)
				switch next(6) {
				case 0:
					v = u // self-loop
				case 1:
					w = -w // dips or cancels an existing edge
				}
				ins = append(ins, graph.Edge{U: u, V: v, W: w})
			}
			last := history[len(history)-1].snap
			if last.NumArcs() > 0 {
				for i := next(6); i > 0; i-- {
					u := next(uint64(last.NumVertices()))
					if es, _ := last.Neighbors(u); len(es) > 0 {
						del = append(del, graph.Edge{U: u, V: es[next(uint64(len(es)))]})
					}
				}
			}
			switch next(8) {
			case 0: // poisoned batch: must be rejected and change nothing
				del = append(del, graph.Edge{U: uint32(n) + 5, V: 0})
			case 1:
				ins = append(ins, graph.Edge{U: 0, V: 1, W: float32(math.Inf(1))})
			case 2:
				ins = append(ins, graph.Edge{U: graph.MaxVertices, V: 0, W: 1})
			case 3: // direct mutations instead of a batch
				if err := s.AddEdge(next(n), next(n), 2); err != nil {
					t.Fatal(err)
				}
				if len(del) > 0 {
					s.RemoveEdge(del[0].U, del[0].V)
				}
				ins, del = nil, nil
			}
			if err := s.Apply(ins, del); err != nil {
				// Rejected (a poisoned batch, or a duplicate deletion
				// drawn above): the graph must equal its last snapshot.
				assertBitIdentical(t, "after rejected batch", builderSnapshot(s), last)
			}
			snapshot()
			if next(3) == 0 {
				snapshot() // back-to-back
			}
		}
		for _, h := range history {
			assertBitIdentical(t, "earlier snapshot", h.snap, h.copy)
		}
	}
}

// TestSnapshotNeverAliasesSource: the first snapshot after FromCSR is
// freshly filled, so it shares no storage with the source graph (which
// may be a read-only mapping), and later snapshots share none with
// earlier ones.
func TestSnapshotNeverAliasesSource(t *testing.T) {
	g, _ := gen.WebGraph(300, 6, 2)
	s := FromCSR(g)
	a := s.Snapshot()
	if &a.Edges[0] == &g.Edges[0] || &a.Weights[0] == &g.Weights[0] || &a.Offsets[0] == &g.Offsets[0] {
		t.Fatal("snapshot aliases the source CSR")
	}
	b := s.Snapshot()
	if &a.Edges[0] == &b.Edges[0] || &a.Weights[0] == &b.Weights[0] {
		t.Fatal("consecutive snapshots share storage")
	}
	assertBitIdentical(t, "unchanged graph", a, b)
}

// BenchmarkSnapshotAfterDelta times one Snapshot after a 32-edit batch
// on a graph the size of the serving benchmark's (8k vertices, ≈120k
// arcs): the row-patching Snapshot against a full Builder rebuild.
func BenchmarkSnapshotAfterDelta(b *testing.B) {
	for _, bc := range []struct {
		name string
		snap func(*Graph) *graph.CSR
	}{{"patch", (*Graph).Snapshot}, {"builder", builderSnapshot}} {
		b.Run(bc.name, func(b *testing.B) {
			g, _ := gen.SocialNetwork(8000, 15, 12, 0.3, 1)
			s := FromCSR(g)
			last := s.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ins, del := graph.RandomDelta(last, 16, 16, uint64(i))
				if err := s.Apply(ins, del); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				last = bc.snap(s)
			}
		})
	}
}
