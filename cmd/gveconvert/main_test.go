package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/order"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("gveconvert %v exited %d: %s", args, code, errb.String())
	}
	return out.String()
}

func writeEdgeList(t *testing.T, dir string, g *graph.CSR) string {
	t.Helper()
	path := filepath.Join(dir, "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func smallGraph() *graph.CSR {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 2)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 4)
	return b.Build()
}

func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := smallGraph()
	in := writeEdgeList(t, dir, g)
	out := filepath.Join(dir, "g"+gvecsr.Ext)
	runOK(t, "-i", in, "-o", out)

	f, err := gvecsr.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || len(got.Edges) != len(g.Edges) {
		t.Fatalf("converted graph shape |V|=%d m=%d, want |V|=%d m=%d",
			got.NumVertices(), len(got.Edges), g.NumVertices(), len(g.Edges))
	}
	for i := range g.Edges {
		if g.Edges[i] != got.Edges[i] || g.Weights[i] != got.Weights[i] {
			t.Fatalf("arc %d differs", i)
		}
	}
}

func TestConvertCompressAndPerm(t *testing.T) {
	dir := t.TempDir()
	g := smallGraph()
	in := writeEdgeList(t, dir, g)
	out := filepath.Join(dir, "p"+gvecsr.Ext)
	runOK(t, "-i", in, "-o", out, "-compress", "-perm", "degree")

	f, err := gvecsr.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Header().Compressed() || !f.Header().HasPerm() {
		t.Fatalf("flags %#x: want gap-adjacency and perm", f.Header().Flags)
	}
	got, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	perm, err := f.Permutation()
	if err != nil {
		t.Fatal(err)
	}
	want := order.ByDegreeDescCounting(g)
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm[%d] = %d, want %d", i, perm[i], want[i])
		}
	}
	pg, err := graph.Permute(g, want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pg.Edges {
		if pg.Edges[i] != got.Edges[i] {
			t.Fatalf("stored graph is not the permuted graph at arc %d", i)
		}
	}
}

func TestGenerateAndInspect(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "er"+gvecsr.Ext)
	runOK(t, "-gen", "er", "-n", "2000", "-seed", "3", "-o", out)

	text := runOK(t, "-inspect", out)
	for _, want := range []string{"gvecsr v1", "vertices  2000", "offsets", "edges", "weights", "ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("inspection output missing %q:\n%s", want, text)
		}
	}

	// Corrupt one payload byte: -inspect must report CORRUPT and exit 1.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var outb, errb bytes.Buffer
	if code := run([]string{"-inspect", out}, &outb, &errb); code != 1 {
		t.Fatalf("inspect of corrupt container exited %d, want 1\n%s", code, outb.String())
	}
	if !strings.Contains(outb.String(), "CORRUPT") {
		t.Fatalf("inspection did not flag corruption:\n%s", outb.String())
	}
}

func TestGenerateStreamedClassesMatchBuilders(t *testing.T) {
	dir := t.TempDir()
	for _, class := range []string{"social", "web", "road", "kmer"} {
		out := filepath.Join(dir, class+gvecsr.Ext)
		runOK(t, "-gen", class, "-n", "3000", "-seed", "11", "-o", out)
		f, err := gvecsr.Load(out)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		g, err := f.Graph()
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: generated container holds invalid graph: %v", class, err)
		}
		if g.NumVertices() < 3000 {
			t.Fatalf("%s: %d vertices, want >= 3000", class, g.NumVertices())
		}
		f.Close()
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                   // nothing
		{"-o", "x.gvecsr"},                   // no input
		{"-i", "a", "-gen", "er", "-o", "x"}, // both inputs
		{"-inspect"},                         // no paths
		{"-gen", "er", "-o", "x.mtx", "-compress"},       // container-only flag, text output
		{"-gen", "er", "-o", "x.txt", "-perm", "degree"}, // container-only flag, text output
		{"-corpus", "d", "-o", "x.gvecsr"},               // -corpus takes no -o
		{"-corpus", "d", "-gen", "er"},                   // -corpus takes no -gen
	} {
		var outb, errb bytes.Buffer
		if code := run(args, &outb, &errb); code != 2 {
			t.Fatalf("args %v exited %d, want 2", args, code)
		}
	}
	var outb, errb bytes.Buffer
	if code := run([]string{"-gen", "nope", "-o", filepath.Join(t.TempDir(), "x.gvecsr")}, &outb, &errb); code != 1 {
		t.Fatalf("unknown generator exited %d, want 1", code)
	}
}

// loadGraph reads any supported graph file the way the CLIs do.
func loadGraph(t *testing.T, path string) *graph.CSR {
	t.Helper()
	f, err := gvecsr.LoadAny(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	t.Cleanup(func() { f.Close() })
	g, err := f.Graph()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// TestTextRoundTripIsBitIdentical converts a container to MatrixMarket
// and back: offsets, targets and weight bits must all survive.
func TestTextRoundTripIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "a"+gvecsr.Ext)
	mtx := filepath.Join(dir, "a.mtx")
	second := filepath.Join(dir, "b"+gvecsr.Ext)
	runOK(t, "-gen", "social", "-n", "3000", "-seed", "5", "-o", first)
	runOK(t, "-i", first, "-o", mtx)
	text, err := os.ReadFile(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(text, []byte("%%MatrixMarket")) {
		t.Fatalf("%s is not MatrixMarket text: %q...", mtx, text[:min(len(text), 16)])
	}
	runOK(t, "-i", mtx, "-o", second)

	want, got := loadGraph(t, first), loadGraph(t, second)
	if len(got.Offsets) != len(want.Offsets) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("round trip shape |V|=%d m=%d, want |V|=%d m=%d",
			got.NumVertices(), len(got.Edges), want.NumVertices(), len(want.Edges))
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("offset %d: %d, want %d", i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] || math.Float32bits(got.Weights[i]) != math.Float32bits(want.Weights[i]) {
			t.Fatalf("arc %d: (%d, %v), want (%d, %v)", i, got.Edges[i], got.Weights[i], want.Edges[i], want.Weights[i])
		}
	}
}

func TestCorpusWritesLoadableContainers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	runOK(t, "-corpus", dir, "-scale", "0.01")
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 13 {
		t.Fatalf("corpus wrote %d files, want 13: %v", len(paths), paths)
	}
	for _, p := range paths {
		if !strings.HasSuffix(p, gvecsr.Ext) {
			t.Fatalf("corpus file %s is not a container", p)
		}
		if err := loadGraph(t, p).Validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}
