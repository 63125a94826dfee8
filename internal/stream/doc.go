// Package stream provides a mutable graph for evolving-network
// workloads: an adjacency-map overlay supporting edge insertion,
// deletion and weight updates in O(1) expected time, with a Snapshot
// that materializes the current state as the immutable CSR the
// detection algorithms consume. Snapshot patches the CSR it returned
// last, refilling only the rows touched since, so its cost tracks the
// delta plus one copy of the arc arrays. It is the substrate under the
// dynamic Leiden workflow (core.LeidenDynamic): batch mutations
// accumulate here; Snapshot + the batch go to the detector.
//
// Apply consumes a graph.Delta under the same whole-batch semantics as
// graph.EvaluateDelta: the batch is validated first and a rejected
// batch leaves the graph bit-identical, which is what lets
// internal/serve treat an ingest failure as a clean no-op.
//
// The package deliberately trades memory for mutability — a map per
// vertex — and is not safe for concurrent mutation; callers serialize
// writers (internal/serve funnels all mutations through one ingest
// path) and share read-only snapshots instead.
package stream
