package graph

import (
	"fmt"
	"slices"
)

// Unified delta semantics, shared verbatim by ApplyDelta (CSR rebuild)
// and stream.Graph.Apply (in-place overlay) so the two ingest paths of
// the dynamic pipeline cannot drift apart:
//
//  1. Deletions apply first, then insertions — a batch that deletes and
//     re-inserts the same edge replaces its weight.
//  2. Every deletion must name a distinct existing edge. A missing or
//     duplicate deletion fails the whole batch, and a failed batch is a
//     no-op: the graph is left untouched.
//  3. Insertion weights must be finite, and every running per-edge sum
//     must stay finite in float32; violations fail the whole batch.
//  4. An insertion that drives an edge's summed weight to zero or below
//     cancels the edge entirely — it is removed, and a later insertion
//     for the same pair starts fresh from zero. This keeps the ingest
//     paths from emitting CSRs the readers' weight validation
//     (checkWeight, PR 4) would reject.
//  5. Insertions grow the vertex set to cover new endpoints, even when
//     the inserted edge itself is cancelled within the batch.
//  6. Every endpoint must be below MaxVertices; a larger id fails the
//     whole batch with a *VertexRangeError.
//
// EvaluateDelta implements rules 1-4 and 6 against an abstract
// current-weight lookup; both appliers validate with it first and
// mutate only on success.

// PairKey encodes the unordered vertex pair {u, v} as a single map key.
func PairKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// SplitPairKey decodes a PairKey back into its (min, max) endpoints.
func SplitPairKey(k uint64) (u, v uint32) {
	return uint32(k >> 32), uint32(k)
}

// VertexRangeError reports an edge endpoint at or above MaxVertices,
// an id no graph of the 32-bit configuration can hold. Growing a graph
// to cover it would wrap the vertex count or allocate gigabytes, so
// every ingest path refuses it up front.
type VertexRangeError struct{ U, V uint32 }

func (e *VertexRangeError) Error() string {
	return fmt.Sprintf("graph: edge {%d,%d}: vertex id exceeds MaxVertices-1 (%d)", e.U, e.V, MaxVertices-1)
}

// CheckVertexIDs returns a *VertexRangeError if u or v is at or above
// MaxVertices, and nil otherwise.
func CheckVertexIDs(u, v uint32) error {
	if u >= MaxVertices || v >= MaxVertices {
		return &VertexRangeError{U: u, V: v}
	}
	return nil
}

// DeltaState is the post-batch state of one touched unordered pair:
// either present with a final weight, or absent (deleted or cancelled).
type DeltaState struct {
	Present bool
	W       float32
}

// EvaluateDelta validates a batch against the unified delta semantics
// and returns the final state of every pair the batch touches, without
// mutating anything. weight reports the current weight of the edge
// {u, v} and whether it exists; it is never called with endpoints the
// graph cannot answer for (out-of-range ids simply report absence).
// The float32 accumulation order matches stream.Graph.AddEdge exactly,
// so applying the returned states reproduces a sequential replay bit
// for bit.
func EvaluateDelta(weight func(u, v uint32) (float32, bool), insertions, deletions []Edge) (map[uint64]DeltaState, error) {
	touched := make(map[uint64]DeltaState, len(insertions)+len(deletions))
	for _, e := range deletions {
		if err := CheckVertexIDs(e.U, e.V); err != nil {
			return nil, err
		}
		k := PairKey(e.U, e.V)
		if _, dup := touched[k]; dup {
			return nil, fmt.Errorf("graph: duplicate deletion of edge {%d,%d}", e.U, e.V)
		}
		if _, ok := weight(e.U, e.V); !ok {
			return nil, fmt.Errorf("graph: deletion of missing edge {%d,%d}", e.U, e.V)
		}
		touched[k] = DeltaState{}
	}
	for _, e := range insertions {
		if err := CheckVertexIDs(e.U, e.V); err != nil {
			return nil, err
		}
		if err := checkWeight(float64(e.W)); err != nil {
			return nil, fmt.Errorf("graph: insertion {%d,%d}: %w", e.U, e.V, err)
		}
		k := PairKey(e.U, e.V)
		st, seen := touched[k]
		if !seen {
			if w, ok := weight(e.U, e.V); ok {
				st = DeltaState{Present: true, W: w}
			}
		}
		sum := st.W + e.W
		if err := checkWeight(float64(sum)); err != nil {
			return nil, fmt.Errorf("graph: insertion {%d,%d}: summed %w", e.U, e.V, err)
		}
		if sum <= 0 {
			touched[k] = DeltaState{}
		} else {
			touched[k] = DeltaState{Present: true, W: sum}
		}
	}
	return touched, nil
}

// ApplyDelta returns a new graph with the given batch of edge updates
// applied to g under the unified delta semantics above (the weight
// field of a deletion is ignored). A batch that names a missing or
// duplicate deletion, carries a non-finite weight, or names a vertex id
// at or above MaxVertices returns an error and no graph.
//
// This is the snapshot-update primitive behind the dynamic Leiden
// variants (core.LeidenDynamic): batch updates between runs, warm-start
// from the previous membership. stream.Graph.Apply + Snapshot produces
// an identical CSR for the same batch.
func ApplyDelta(g *CSR, insertions, deletions []Edge) (*CSR, error) {
	gn := g.NumVertices()
	lookup := func(u, v uint32) (float32, bool) {
		if int(u) >= gn {
			return 0, false
		}
		es, ws := g.Neighbors(u)
		var t float32
		found := false
		for k, e := range es {
			if e == v {
				t += ws[k]
				found = true
			}
		}
		return t, found
	}
	touched, err := EvaluateDelta(lookup, insertions, deletions)
	if err != nil {
		return nil, err
	}
	n := gn
	for _, e := range insertions {
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	b := NewBuilder(n)
	for i := 0; i < gn; i++ {
		es, ws := g.Neighbors(uint32(i))
		for k, e := range es {
			if uint32(i) > e {
				continue // emit each undirected edge once
			}
			if _, hit := touched[PairKey(uint32(i), e)]; hit {
				continue // deleted, or re-emitted below with its final weight
			}
			b.AddEdge(uint32(i), e, ws[k])
		}
	}
	keys := make([]uint64, 0, len(touched))
	//gvevet:ignore nodeterm the keys are sorted below before anything consumes them
	for k := range touched {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if st := touched[k]; st.Present {
			u, v := SplitPairKey(k)
			b.AddEdge(u, v, st.W)
		}
	}
	return b.Build(), nil
}

// RandomDelta derives a reproducible random batch of updates from g for
// benchmarking dynamic algorithms: nIns random new edges between
// existing vertices and nDel random existing edges. The xorshift step
// is inlined to keep the graph package dependency-free.
func RandomDelta(g *CSR, nIns, nDel int, seed uint64) (insertions, deletions []Edge) {
	state := uint32(seed*2654435761 + 1)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	n := uint32(g.NumVertices())
	if n < 2 {
		return nil, nil
	}
	for len(insertions) < nIns {
		u := next() % n
		v := next() % n
		if u == v || g.HasArc(u, v) {
			continue
		}
		insertions = append(insertions, Edge{U: u, V: v, W: 1})
	}
	seen := make(map[uint64]struct{}, nDel)
	for attempts := 0; len(deletions) < nDel && attempts < 64*(nDel+1); attempts++ {
		u := next() % n
		deg := g.Degree(u)
		if deg == 0 {
			continue
		}
		es, _ := g.Neighbors(u)
		v := es[next()%deg]
		if u == v {
			continue
		}
		k := PairKey(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		deletions = append(deletions, Edge{U: u, V: v, W: 1})
	}
	return insertions, deletions
}
