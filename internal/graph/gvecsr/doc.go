// Package gvecsr implements the repository's compact, mmap-able binary
// CSR container — the storage format that lets a million-vertex graph
// load in milliseconds instead of rebuilding from an edge list on
// every run. FORMAT.md at the repository root is the normative
// byte-level specification; a test cross-checks the constants here
// against that document so the two cannot drift.
//
// A v1 container is a little-endian file of page-aligned sections
// behind a fixed 64-byte header and a section directory: CSR row
// offsets, arc targets (raw uint32s, or varint gap-encoded for the
// memory-bound road/k-mer classes), IEEE-754 arc weights, and an
// optional vertex permutation recording how the stored graph was
// relabeled (e.g. order.ByDegreeDescCounting). Every section carries a
// CRC32C; the header and directory carry their own.
//
// Two read paths serve every consumer through one File interface:
//
//   - Open memory-maps the container. Constant-time regardless of
//     size, zero copies, read-only pages shared across processes —
//     the path the server and the benchmarks use. Payload integrity
//     is verified lazily, on first access to the graph.
//   - Load reads the sections into ordinary heap slices — the
//     portable fallback, and the right call when the graph must
//     outlive the file or be mutated.
//
// LoadAny adds magic-sniffing dispatch over the text loaders of
// internal/graph, which remain as the conversion import path:
// cmd/gveconvert turns edge lists and MatrixMarket files into
// containers once, and every subsequent run maps them.
//
// Writers (WriteFile, WriteFileStream) stream from an existing CSR or
// a replayable graph.EdgeStream using O(V) scratch beyond the data
// itself, and emit byte-deterministic output: identical graphs and
// options produce identical files, checksums included.
package gvecsr

// Containers feed the determinism oracle: byte-identical inputs must
// produce byte-identical CSRs and files.
//gvevet:deterministic
