package gvecsr

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"gveleiden/internal/graph"
	"gveleiden/internal/parallel"
)

// Source says how a File's graph came to be in memory.
type Source int

const (
	// SourceMmap: sections are zero-copy views over read-only mapped
	// pages, shared with every other process mapping the same file.
	SourceMmap Source = iota
	// SourceLoad: sections were read into ordinary heap slices.
	SourceLoad
	// SourceParse: the graph came from a text loader via
	// LoadAny; there is no container behind it.
	SourceParse
)

func (s Source) String() string {
	switch s {
	case SourceMmap:
		return "mmap"
	case SourceLoad:
		return "load"
	case SourceParse:
		return "parse"
	}
	return "?"
}

// File is an opened dataset: the one handle the CLI, the benchmarks
// and the server consume, whatever the underlying storage. Obtain one
// with Open (mmap, zero-copy), Load (portable read) or LoadAny
// (extension/magic dispatch including the text formats).
//
// A File from Open hands out a CSR whose slices alias read-only
// mapped pages: treat the graph as strictly immutable (writes fault),
// and do not use it after Close unmaps the pages. Files are safe for
// concurrent use once Graph has returned.
type File struct {
	src    Source
	path   string
	hdr    Header
	secs   []SectionInfo
	data   []byte // whole container (mapped or read); nil for SourceParse
	mapped bool   // data is an OS mapping that Close must release

	verifyOnce sync.Once
	verifyErr  error
	g          *graph.CSR
	perm       []uint32
}

// Header returns the decoded container header (zero for SourceParse).
func (f *File) Header() Header { return f.hdr }

// Sections returns the decoded section directory (nil for
// SourceParse). The slice is shared; do not modify.
func (f *File) Sections() []SectionInfo { return f.secs }

// Source reports how the dataset is held in memory.
func (f *File) Source() Source { return f.src }

// Path returns the path the File was opened from.
func (f *File) Path() string { return f.path }

// Graph verifies the container on first call (checksums plus CSR
// semantic validation, see Verify) and returns the graph. The returned
// CSR must be treated as immutable; for mmap-backed Files its slices
// alias the mapping and die with Close.
func (f *File) Graph() (*graph.CSR, error) {
	if err := f.Verify(); err != nil {
		return nil, err
	}
	return f.g, nil
}

// Permutation returns the embedded vertex permutation
// (perm[original] = stored), or nil if the container carries none.
// Like Graph, it verifies on first call.
func (f *File) Permutation() ([]uint32, error) {
	if err := f.Verify(); err != nil {
		return nil, err
	}
	return f.perm, nil
}

// Verify runs the deferred integrity checks exactly once: CRC32C of
// every section, offset monotonicity, target range, weight finiteness,
// permutation validity, and — for gap-compressed containers — the
// adjacency decode itself. Subsequent calls return the cached verdict.
// The scans are fanned out on the default pool; they also touch every
// page once, so an mmap'd File is fully faulted in afterwards.
func (f *File) Verify() error {
	f.verifyOnce.Do(func() { f.verifyErr = f.verify() })
	return f.verifyErr
}

// Close releases the mapping (if any). The File and any CSR obtained
// from a mapped File must not be used afterwards.
func (f *File) Close() error {
	if !f.mapped {
		f.data = nil
		return nil
	}
	f.mapped = false
	data := f.data
	f.data = nil
	return munmapFile(data)
}

// section returns the payload bytes of the section with the given id,
// or nil if absent.
func (f *File) section(id uint32) []byte {
	for _, s := range f.secs {
		if s.ID == id {
			return f.data[s.Offset : s.Offset+s.Length]
		}
	}
	return nil
}

// verify is the single full-verification pass behind Verify. Each
// section is checksummed in parallel chunks (crc.go), with the
// semantic scan of the same bytes fused into the CRC pass so every
// section crosses DRAM once: the scan re-reads the chunk from cache.
// Scan verdicts are only consulted after the section's CRC matches,
// so corruption always reports as ErrChecksum, never as a bogus
// semantic violation.
func (f *File) verify() error {
	if f.src == SourceParse {
		return nil // parsed loaders validated on read
	}
	n := int(f.hdr.NumVertices)
	m := f.hdr.NumArcs
	threads := parallel.DefaultThreads()

	// Zero-copy views; contents untrusted until their section's CRC
	// passes.
	offsets, err := f.u32Section(SecOffsets, n+1)
	if err != nil {
		return err
	}
	monoBad := newMinSlots(threads, int64(n))
	if err := f.checkSection(SecOffsets, 4, func(lo, hi, tid int) {
		if hi > n {
			hi = n // pairs (i, i+1); the chunk tiling covers every pair once
		}
		for i := lo; i < hi; i++ {
			if offsets[i] > offsets[i+1] {
				monoBad.record(tid, int64(i))
				return
			}
		}
	}); err != nil {
		return err
	}
	if bad := monoBad.min(); bad < int64(n) {
		return fmt.Errorf("%w: offsets not monotone at vertex %d", ErrSemantics, bad)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("%w: offsets[0] = %d, want 0", ErrSemantics, offsets[0])
	}
	if uint64(offsets[n]) != m {
		return fmt.Errorf("%w: offsets[n] = %d, header says %d arcs", ErrSemantics, offsets[n], m)
	}

	var edges []uint32
	if f.hdr.Compressed() {
		if err := f.checkSection(SecGapIndex, 8, nil); err != nil {
			return err
		}
		if err := f.checkSection(SecGapBlob, 1, nil); err != nil {
			return err
		}
		edges, err = f.decodeGapAdjacency(offsets)
		if err != nil {
			return err
		}
	} else {
		edges, err = f.u32Section(SecEdges, int(m))
		if err != nil {
			return err
		}
		nv := uint32(n)
		targetBad := newMinSlots(threads, int64(m))
		if err := f.checkSection(SecEdges, 4, func(lo, hi, tid int) {
			// Branch-free detection first; only a dirty chunk is
			// rescanned for the exact index.
			if anyTargetGE(edges[lo:hi], nv) {
				for j, e := range edges[lo:hi] {
					if e >= nv {
						targetBad.record(tid, int64(lo+j))
						return
					}
				}
			}
		}); err != nil {
			return err
		}
		if bad := targetBad.min(); bad < int64(m) {
			return fmt.Errorf("%w: arc %d target %d out of range (n=%d)", ErrSemantics, bad, edges[bad], n)
		}
	}

	weights, err := f.f32Section(SecWeights, int(m))
	if err != nil {
		return err
	}
	weightBad := newMinSlots(threads, int64(m))
	if err := f.checkSection(SecWeights, 4, func(lo, hi, tid int) {
		if anyNonFinite(weights[lo:hi]) {
			for j, w := range weights[lo:hi] {
				if math.Float32bits(w)&expMask == expMask {
					weightBad.record(tid, int64(lo+j))
					return
				}
			}
		}
	}); err != nil {
		return err
	}
	if bad := weightBad.min(); bad < int64(m) {
		return fmt.Errorf("%w: arc %d weight %g is not finite", ErrSemantics, bad, weights[bad])
	}

	if f.hdr.HasPerm() {
		perm, err := f.u32Section(SecPerm, n)
		if err != nil {
			return err
		}
		if err := f.checkSection(SecPerm, 4, nil); err != nil {
			return err
		}
		if err := checkStoredPermutation(perm, n); err != nil {
			return err
		}
		f.perm = perm
	}
	f.g = &graph.CSR{Offsets: offsets, Edges: edges, Weights: weights}
	return nil
}

// checkSection checksums one section (chunk-parallel, with an optional
// scan fused into the cache-hot pass) and compares the result against
// the directory entry.
func (f *File) checkSection(id uint32, elemSize int, scan func(elemLo, elemHi, tid int)) error {
	for _, s := range f.secs {
		if s.ID != id {
			continue
		}
		if got := checksumScan(f.data[s.Offset:s.Offset+s.Length], elemSize, scan); got != s.CRC {
			return fmt.Errorf("%w: section %s payload crc %#08x, computed %#08x", ErrChecksum, s.Name(), s.CRC, got)
		}
		return nil
	}
	return fmt.Errorf("%w: section %s missing", ErrMalformed, SectionName(id))
}

// decodeGapAdjacency materializes the compressed adjacency into a heap
// slice, validating the per-vertex index and every varint run. The
// per-vertex decode is fanned out on the default pool; each vertex's
// run is independent so errors are reduced to the smallest vertex.
func (f *File) decodeGapAdjacency(offsets []uint32) ([]uint32, error) {
	n := int(f.hdr.NumVertices)
	index, err := f.u64Section(SecGapIndex, n+1)
	if err != nil {
		return nil, err
	}
	blob := f.section(SecGapBlob)
	if index[0] != 0 {
		return nil, fmt.Errorf("%w: gap index[0] = %d, want 0", ErrSemantics, index[0])
	}
	if index[n] != uint64(len(blob)) {
		return nil, fmt.Errorf("%w: gap index end %d != blob length %d", ErrSemantics, index[n], len(blob))
	}
	edges := make([]uint32, f.hdr.NumArcs)
	nv := f.hdr.NumVertices
	threads := parallel.DefaultThreads()
	slots := newMinSlots(threads, int64(n))
	parallel.Default().For(n, threads, 512, func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			if index[i] > index[i+1] || index[i+1] > uint64(len(blob)) {
				slots.record(tid, int64(i))
				return
			}
			d := offsets[i+1] - offsets[i]
			if err := decodeGapRun(blob[index[i]:index[i+1]], edges[offsets[i]:offsets[i]+d], nv); err != nil {
				slots.record(tid, int64(i))
				return
			}
		}
	})
	bad := slots.min()
	if bad < int64(n) {
		// Re-decode the first bad vertex sequentially for the message.
		i := int(bad)
		if index[i] > index[i+1] || index[i+1] > uint64(len(blob)) {
			return nil, fmt.Errorf("%w: gap index not monotone at vertex %d", ErrSemantics, i)
		}
		d := offsets[i+1] - offsets[i]
		err := decodeGapRun(blob[index[i]:index[i+1]], edges[offsets[i]:offsets[i]+d], nv)
		return nil, fmt.Errorf("vertex %d: %w", i, err)
	}
	return edges, nil
}

// u32Section returns the section as a []uint32 of the given element
// count, zero-copy when the payload is 4-byte aligned (mmap pages
// always are), copied otherwise.
func (f *File) u32Section(id uint32, count int) ([]uint32, error) {
	b := f.section(id)
	if len(b) != 4*count {
		return nil, fmt.Errorf("%w: section %s is %d bytes, want %d", ErrMalformed, SectionName(id), len(b), 4*count)
	}
	if count == 0 {
		return []uint32{}, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), count), nil
	}
	out := make([]uint32, count)
	for i := range out {
		out[i] = leU32(b[4*i:])
	}
	return out, nil
}

// u64Section is u32Section for uint64 payloads.
func (f *File) u64Section(id uint32, count int) ([]uint64, error) {
	b := f.section(id)
	if len(b) != 8*count {
		return nil, fmt.Errorf("%w: section %s is %d bytes, want %d", ErrMalformed, SectionName(id), len(b), 8*count)
	}
	if count == 0 {
		return []uint64{}, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), count), nil
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = leU64(b[8*i:])
	}
	return out, nil
}

// f32Section is u32Section for float32 payloads.
func (f *File) f32Section(id uint32, count int) ([]float32, error) {
	b := f.section(id)
	if len(b) != 4*count {
		return nil, fmt.Errorf("%w: section %s is %d bytes, want %d", ErrMalformed, SectionName(id), len(b), 4*count)
	}
	if count == 0 {
		return []float32{}, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), count), nil
	}
	out := make([]float32, count)
	for i := range out {
		out[i] = math.Float32frombits(leU32(b[4*i:]))
	}
	return out, nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

// minSlots holds per-participant first-violation indices, padded so
// concurrent recorders never share a cache line; the reduction to the
// global minimum makes verification verdicts thread-count independent.
type minSlots struct {
	slots    []parallel.Padded[int64]
	sentinel int64
}

func newMinSlots(threads int, sentinel int64) *minSlots {
	if threads < 1 {
		threads = 1
	}
	s := &minSlots{slots: make([]parallel.Padded[int64], threads), sentinel: sentinel}
	for i := range s.slots {
		s.slots[i].V = sentinel
	}
	return s
}

func (s *minSlots) record(tid int, i int64) {
	if i < s.slots[tid].V {
		s.slots[tid].V = i
	}
}

// min returns the smallest recorded index, or the sentinel if none.
func (s *minSlots) min() int64 {
	out := s.sentinel
	for i := range s.slots {
		if v := s.slots[i].V; v < out {
			out = v
		}
	}
	return out
}

// checkStoredPermutation validates a perm section with ErrSemantics
// wrapping (the writer-side checkPermutation reports plain errors).
func checkStoredPermutation(perm []uint32, n int) error {
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return fmt.Errorf("%w: perm section is not a permutation (value %d)", ErrSemantics, p)
		}
		seen[p] = true
	}
	return nil
}
