package stream

import (
	"math"
	"testing"
	"testing/quick"

	"gveleiden/internal/core"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/quality"
)

func TestBasicMutation(t *testing.T) {
	s := New(3)
	s.AddEdge(0, 1, 1)
	s.AddEdge(1, 2, 2)
	if s.NumEdges() != 2 || s.NumVertices() != 3 {
		t.Fatalf("edges=%d vertices=%d", s.NumEdges(), s.NumVertices())
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 0) {
		t.Fatal("symmetry broken")
	}
	if s.Weight(1, 2) != 2 {
		t.Fatalf("weight = %v", s.Weight(1, 2))
	}
	s.AddEdge(0, 1, 3) // reinforce
	if s.Weight(0, 1) != 4 || s.NumEdges() != 2 {
		t.Fatal("reinforcement broken")
	}
	if !s.RemoveEdge(0, 1) {
		t.Fatal("remove failed")
	}
	if s.HasEdge(1, 0) || s.NumEdges() != 1 {
		t.Fatal("remove left residue")
	}
	if s.RemoveEdge(0, 1) {
		t.Fatal("double remove succeeded")
	}
	if s.Degree(1) != 1 {
		t.Fatalf("degree = %d", s.Degree(1))
	}
}

func TestVertexGrowthAndLoops(t *testing.T) {
	s := New(0)
	s.AddEdge(5, 5, 2) // loop on a new vertex
	if s.NumVertices() != 6 || s.NumEdges() != 1 {
		t.Fatalf("v=%d e=%d", s.NumVertices(), s.NumEdges())
	}
	g := s.Snapshot()
	if g.ArcWeight(5, 5) != 2 {
		t.Fatalf("loop weight = %v", g.ArcWeight(5, 5))
	}
	if g.VertexWeight(5) != 2 {
		t.Fatalf("K_5 = %v", g.VertexWeight(5))
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	g, _ := gen.WebGraph(500, 8, 3)
	s := FromCSR(g)
	if s.NumEdges() != g.NumUndirectedEdges() {
		t.Fatalf("edges %d vs %d", s.NumEdges(), g.NumUndirectedEdges())
	}
	snap := s.Snapshot()
	if snap.NumArcs() != g.NumArcs() {
		t.Fatalf("arcs %d vs %d", snap.NumArcs(), g.NumArcs())
	}
	if snap.TotalWeight() != g.TotalWeight() {
		t.Fatal("round trip changed total weight")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMatchesApplyDelta(t *testing.T) {
	g, _ := gen.SocialNetwork(600, 10, 6, 0.3, 5)
	ins, del := graph.RandomDelta(g, 40, 30, 9)

	viaRebuild, err := graph.ApplyDelta(g, ins, del)
	if err != nil {
		t.Fatal(err)
	}

	s := FromCSR(g)
	if err := s.Apply(ins, del); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "stream vs ApplyDelta", s.Snapshot(), viaRebuild)
}

// TestApplyDifferentialRandomized is the unified-semantics oracle: on
// randomized batches — duplicate insertions, delete-then-reinsert of
// the same edge, negative (cancelling) weights — stream.Apply+Snapshot
// and graph.ApplyDelta must produce bit-identical CSRs, and must agree
// on whether the batch is valid at all.
func TestApplyDifferentialRandomized(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g, _ := gen.SocialNetwork(300, 8, 5, 0.3, seed+1)
		rng := seed*2654435761 + 17
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		n := uint32(g.NumVertices())

		// Deletions: existing edges, with an occasional duplicate.
		_, del := graph.RandomDelta(g, 0, 12, seed+3)
		if seed%4 == 0 && len(del) > 0 {
			del = append(del, del[int(next()%uint64(len(del)))]) // duplicate → invalid
		}
		// Insertions: fresh edges, reinforcements, re-inserts of deleted
		// edges, duplicates within the batch, and negative weights.
		var ins []graph.Edge
		for i := 0; i < 30; i++ {
			var e graph.Edge
			switch next() % 4 {
			case 0: // random pair (may exist, may repeat)
				e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: float32(next()%5) + 1}
			case 1: // re-insert a deleted edge
				if len(del) > 0 {
					d := del[int(next()%uint64(len(del)))]
					e = graph.Edge{U: d.U, V: d.V, W: 2}
				} else {
					e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: 1}
				}
			case 2: // negative weight: cancels or dips an existing edge
				e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: -float32(next()%3) - 1}
			case 3: // duplicate of an earlier insertion
				if len(ins) > 0 {
					e = ins[int(next()%uint64(len(ins)))]
				} else {
					e = graph.Edge{U: uint32(next()) % n, V: uint32(next()) % n, W: 1}
				}
			}
			ins = append(ins, e)
		}

		viaRebuild, errRebuild := graph.ApplyDelta(g, ins, del)
		s := FromCSR(g)
		before := s.Snapshot()
		errStream := s.Apply(ins, del)

		if (errRebuild == nil) != (errStream == nil) {
			t.Fatalf("seed %d: appliers disagree on validity: rebuild=%v stream=%v",
				seed, errRebuild, errStream)
		}
		if errRebuild != nil {
			// Rejected batch: the stream graph must be untouched.
			assertBitIdentical(t, "after rejected batch", s.Snapshot(), before)
			continue
		}
		assertBitIdentical(t, "stream vs ApplyDelta", s.Snapshot(), viaRebuild)
		if err := viaRebuild.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestApplyRejectsMissingDeletion(t *testing.T) {
	s := New(3)
	s.AddEdge(0, 1, 1)
	err := s.Apply(nil, []graph.Edge{{U: 1, V: 2}})
	if err == nil {
		t.Fatal("deleting a missing edge must error")
	}
}

// TestApplyFailedBatchIsNoOp is the regression test for the
// partial-mutation bug: Apply used to delete edges one at a time and
// return mid-batch on the first missing deletion, leaving earlier
// deletions applied. A rejected batch must leave NumEdges, weights, and
// adjacency bit-identical.
func TestApplyFailedBatchIsNoOp(t *testing.T) {
	g, _ := gen.WebGraph(400, 8, 7)
	s := FromCSR(g)
	before := s.Snapshot()
	edgesBefore := s.NumEdges()

	ins, del := graph.RandomDelta(before, 10, 10, 11)
	// Poison the batch *after* valid deletions, so the old
	// apply-as-you-validate behaviour would have mutated first.
	del = append(del, graph.Edge{U: 0, V: 0}) // self-loop that does not exist

	if err := s.Apply(ins, del); err == nil {
		t.Fatal("batch with a missing deletion must be rejected")
	}
	if s.NumEdges() != edgesBefore {
		t.Fatalf("NumEdges mutated: %d vs %d", s.NumEdges(), edgesBefore)
	}
	assertBitIdentical(t, "after rejected batch", s.Snapshot(), before)

	// Duplicate deletions poison a batch the same way.
	ins2, del2 := graph.RandomDelta(before, 5, 5, 13)
	del2 = append(del2, del2[0])
	if err := s.Apply(ins2, del2); err == nil {
		t.Fatal("batch with a duplicate deletion must be rejected")
	}
	assertBitIdentical(t, "after rejected batch", s.Snapshot(), before)

	// A non-finite insertion weight poisons a batch too.
	if err := s.Apply([]graph.Edge{{U: 1, V: 2, W: float32(math.NaN())}}, nil); err == nil {
		t.Fatal("batch with a NaN insertion must be rejected")
	}
	assertBitIdentical(t, "after rejected batch", s.Snapshot(), before)

	// The valid prefix of the poisoned batch still applies on its own.
	if err := s.Apply(ins, del[:len(del)-1]); err != nil {
		t.Fatal(err)
	}
}

// TestAddEdgeWeightValidation mirrors the PR 4 reader validation on the
// mutable ingest path: non-finite weights are rejected, float32
// overflow of the summed weight is rejected, and a sum reaching zero or
// below cancels the edge instead of materializing a CSR the readers
// would refuse.
func TestAddEdgeWeightValidation(t *testing.T) {
	s := New(2)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.AddEdge(0, 1, float32(w)); err == nil {
			t.Fatalf("AddEdge accepted non-finite weight %v", w)
		}
	}
	if s.NumEdges() != 0 || s.NumVertices() != 2 {
		t.Fatal("rejected AddEdge mutated the graph")
	}

	// An id no graph can hold is refused before the vertex set grows.
	if err := s.AddEdge(0, 1<<32-1, 1); err == nil {
		t.Fatal("AddEdge accepted vertex id 2^32-1")
	}
	if s.NumVertices() != 2 {
		t.Fatal("rejected AddEdge grew the graph")
	}

	// Overflowing sum.
	if err := s.AddEdge(0, 1, math.MaxFloat32); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, 1, math.MaxFloat32); err == nil {
		t.Fatal("AddEdge accepted a float32-overflowing sum")
	}
	if s.Weight(0, 1) != math.MaxFloat32 {
		t.Fatal("failed AddEdge mutated the weight")
	}

	// Cancellation to zero removes the edge entirely.
	s2 := New(0)
	s2.AddEdge(3, 4, 2)
	if err := s2.AddEdge(3, 4, -2); err != nil {
		t.Fatal(err)
	}
	if s2.HasEdge(3, 4) || s2.HasEdge(4, 3) || s2.NumEdges() != 0 {
		t.Fatal("zero-sum edge survived")
	}
	// Driving below zero removes it too.
	s2.AddEdge(3, 4, 1)
	if err := s2.AddEdge(3, 4, -5); err != nil {
		t.Fatal(err)
	}
	if s2.HasEdge(3, 4) || s2.NumEdges() != 0 {
		t.Fatal("negative-sum edge survived")
	}
	// A fresh negative insertion never creates an edge, but still grows
	// the vertex set (the endpoints were mentioned).
	if err := s2.AddEdge(7, 8, -1); err != nil {
		t.Fatal(err)
	}
	if s2.HasEdge(7, 8) || s2.NumVertices() != 9 {
		t.Fatalf("fresh negative edge: has=%v n=%d", s2.HasEdge(7, 8), s2.NumVertices())
	}
	// Snapshots of a cancelled-edge graph stay reader-clean.
	if err := s2.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDrivesDynamicLeiden(t *testing.T) {
	// End-to-end: stream mutations + dynamic Leiden across 4 batches.
	g0, _ := gen.SocialNetwork(1200, 12, 10, 0.3, 21)
	s := FromCSR(g0)
	opt := core.DefaultOptions()
	opt.Threads = 2
	res := core.Leiden(g0, opt)
	for batch := 0; batch < 4; batch++ {
		snap := s.Snapshot()
		ins, del := graph.RandomDelta(snap, 20, 10, uint64(batch)+40)
		if err := s.Apply(ins, del); err != nil {
			t.Fatal(err)
		}
		next := s.Snapshot()
		res = core.LeidenDynamic(next, res.Membership,
			core.Delta{Insertions: ins, Deletions: del}, core.DynamicFrontier, opt)
		if err := quality.ValidatePartition(next, res.Membership); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if ds := quality.CountDisconnected(next, res.Membership, 2); ds.Disconnected != 0 {
			t.Fatalf("batch %d: %d disconnected", batch, ds.Disconnected)
		}
	}
}

// TestStreamPropertyVsReference: any mutation sequence leaves the
// stream graph equal to a naive map-of-edges reference.
func TestStreamPropertyVsReference(t *testing.T) {
	type op struct {
		U, V   uint8
		W      uint8
		Remove bool
	}
	err := quick.Check(func(ops []op) bool {
		s := New(0)
		ref := map[[2]uint32]float32{}
		key := func(u, v uint32) [2]uint32 {
			if u > v {
				u, v = v, u
			}
			return [2]uint32{u, v}
		}
		for _, o := range ops {
			u, v := uint32(o.U%32), uint32(o.V%32)
			if o.Remove {
				existed := s.RemoveEdge(u, v)
				_, want := ref[key(u, v)]
				if existed != want {
					return false
				}
				delete(ref, key(u, v))
			} else {
				w := float32(o.W%8) + 1
				s.AddEdge(u, v, w)
				ref[key(u, v)] += w
			}
		}
		if s.NumEdges() != int64(len(ref)) {
			return false
		}
		for k, w := range ref {
			if s.Weight(k[0], k[1]) != w {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
