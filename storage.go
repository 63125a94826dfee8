package gveleiden

import (
	"gveleiden/internal/graph/gvecsr"
)

// Binary graph storage: the gvecsr container (see FORMAT.md) is the
// repository's mmap-able on-disk CSR. Convert a dataset once with
// cmd/gveconvert, then open it in milliseconds on every run.

// GraphFile is an opened gvecsr container (or a wrapped parse result
// from LoadGraphAuto). Call Graph for the CSR and Close when done;
// graphs from OpenGraphFile alias the mapping and are read-only.
type GraphFile = gvecsr.File

// StorageOptions configures SaveGraphFile: varint gap compression of
// the adjacency and an optional stored vertex permutation.
type StorageOptions = gvecsr.WriteOptions

// GraphFileExt is the canonical container extension, ".gvecsr".
const GraphFileExt = gvecsr.Ext

// ErrGraphFileFormat matches (with errors.Is) every rejection of a
// corrupt, truncated, or semantically invalid container.
var ErrGraphFileFormat = gvecsr.ErrFormat

// OpenGraphFile memory-maps a container: constant-time regardless of
// graph size, zero copies, checksums verified lazily on first access.
func OpenGraphFile(path string) (*GraphFile, error) { return gvecsr.Open(path) }

// LoadGraphFile reads a container into heap memory with eager
// verification — the portable path when the graph must outlive the
// file or be mutated.
func LoadGraphFile(path string) (*GraphFile, error) { return gvecsr.Load(path) }

// LoadGraphAuto opens any supported dataset: gvecsr containers are
// memory-mapped (detected by magic, so the extension is advisory);
// MatrixMarket and edge-list files are parsed.
func LoadGraphAuto(path string) (*GraphFile, error) { return gvecsr.LoadAny(path) }

// SaveGraphFile writes g as a gvecsr container. Output is
// byte-deterministic: identical graphs and options produce identical
// files.
func SaveGraphFile(path string, g *Graph, opts StorageOptions) error {
	return gvecsr.WriteFile(path, g, opts)
}
