// Command gveconvert is the one tool that writes graph files. It turns
// datasets into gvecsr containers — the mmap-able binary CSR format
// specified in FORMAT.md — generates graphs and the benchmark corpus,
// converts containers back to text, and inspects containers. Convert
// once, then every run of gveleiden, gveserve or the benchmarks
// memory-maps the result in milliseconds instead of re-parsing text.
//
// The -o extension picks the writer, by the same rule gvecsr.LoadAny
// reads by: .gvecsr writes a container, .mtx writes MatrixMarket, and
// anything else writes an edge list.
//
//	gveconvert -i graph.mtx -o graph.gvecsr            # convert
//	gveconvert -i big.txt -o big.gvecsr -compress      # varint gap adjacency
//	gveconvert -i g.mtx -o g.gvecsr -perm degree       # relabel by degree desc
//	gveconvert -i g.gvecsr -o g.mtx                    # back to MatrixMarket
//	gveconvert -gen er -n 1000000 -o er.gvecsr         # streamed generation
//	gveconvert -gen road -n 4000000 -seed 7 -o r.gvecsr
//	gveconvert -corpus data/ -scale 0.1                # the 13 benchmark graphs
//	gveconvert -inspect graph.gvecsr                   # header + checksums
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gveleiden/internal/bench"
	"gveleiden/internal/gen"
	"gveleiden/internal/graph"
	"gveleiden/internal/graph/gvecsr"
	"gveleiden/internal/order"
	"gveleiden/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gveconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input    = fs.String("i", "", "input graph file (.gvecsr, .mtx, or edge list)")
		output   = fs.String("o", "", "output path: .gvecsr container, .mtx MatrixMarket, else edge list")
		genName  = fs.String("gen", "", "generate input instead: er|social|web|road|kmer")
		n        = fs.Int("n", 1000000, "vertices for generated input")
		seed     = fs.Uint64("seed", 1, "generator seed")
		deg      = fs.Float64("deg", 8, "average degree for -gen er")
		corpus   = fs.String("corpus", "", "write the 13-graph benchmark corpus into this directory as .gvecsr containers")
		scale    = fs.Float64("scale", 1, "corpus size multiplier for -corpus")
		compress = fs.Bool("compress", false, "varint gap-encode the adjacency (FORMAT.md §3); .gvecsr output only")
		permName = fs.String("perm", "", "relabel vertices before writing: degree (descending, stored in the perm section); .gvecsr output only")
		inspect  = fs.Bool("inspect", false, "inspect containers given as positional arguments instead of converting")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *inspect {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "gveconvert: -inspect needs container paths as arguments")
			return 2
		}
		ok := true
		for _, path := range fs.Args() {
			h, checks, err := gvecsr.Inspect(path)
			if err != nil {
				fmt.Fprintf(stderr, "gveconvert: %s: %v\n", path, err)
				ok = false
				continue
			}
			gvecsr.WriteInspection(stdout, path, h, checks)
			for _, c := range checks {
				if !c.OK {
					ok = false
				}
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	var err error
	switch {
	case *corpus != "":
		if *input != "" || *genName != "" || *output != "" {
			fmt.Fprintln(stderr, "gveconvert: -corpus DIR takes no -i, -gen or -o")
			return 2
		}
		err = writeCorpus(*corpus, *scale, *compress, *permName, stdout)
	case *output == "" || (*input == "") == (*genName == ""):
		fmt.Fprintln(stderr, "gveconvert: need -o OUT and exactly one of -i FILE or -gen NAME (or -corpus DIR, or -inspect FILE...)")
		return 2
	case (*compress || *permName != "") && !strings.HasSuffix(*output, gvecsr.Ext):
		fmt.Fprintf(stderr, "gveconvert: -compress and -perm need a %s output, not %s\n", gvecsr.Ext, *output)
		return 2
	default:
		var g *graph.CSR
		if g, err = source(*input, *genName, *n, *seed, *deg); err == nil {
			err = write(g, *output, *compress, *permName, stdout)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "gveconvert: %v\n", err)
		return 1
	}
	return 0
}

// source loads the -i file or builds the streamed -gen graph. The
// streamed generators use O(V) scratch, so million-vertex graphs
// generate in bounded memory.
func source(input, genName string, n int, seed uint64, deg float64) (*graph.CSR, error) {
	switch {
	case input != "":
		f, err := gvecsr.LoadAny(input)
		if err != nil {
			return nil, err
		}
		return f.Graph()
	case genName == "er":
		// Erdős–Rényi is not one of the paper's four classes but is the
		// cheapest checksum-heavy CI workload; stream it like the rest.
		return graph.BuildStream(n, gen.StreamedER(n, deg, seed)), nil
	default:
		g, _ := gen.BuildStreamedClass(genName, n, seed, parallel.Default(), parallel.DefaultThreads())
		if g == nil {
			return nil, fmt.Errorf("unknown generator %q (er|social|web|road|kmer)", genName)
		}
		return g, nil
	}
}

// writeCorpus writes every bench.Registry dataset as <name>.gvecsr.
func writeCorpus(dir string, scale float64, compress bool, permName string, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range bench.Registry(scale) {
		g, _ := d.Build()
		if err := write(g, filepath.Join(dir, d.Name+gvecsr.Ext), compress, permName, stdout); err != nil {
			return err
		}
	}
	return nil
}

// write stores g at output with the writer its extension selects;
// compress and permName apply to containers only.
func write(g *graph.CSR, output string, compress bool, permName string, stdout io.Writer) error {
	opts := gvecsr.WriteOptions{GapAdjacency: compress}
	switch permName {
	case "":
	case "degree":
		perm := order.ByDegreeDescCounting(g)
		pg, err := graph.PermuteWith(parallel.Default(), parallel.DefaultThreads(), g, perm)
		if err != nil {
			return err
		}
		g = pg
		opts.Permutation = perm
	default:
		return fmt.Errorf("unknown -perm %q (want: degree)", permName)
	}

	var err error
	if strings.HasSuffix(output, gvecsr.Ext) {
		err = gvecsr.WriteFile(output, g, opts)
	} else {
		err = writeText(output, g)
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(output)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: |V|=%d |E|=%d, %d bytes (compress=%v perm=%q)\n",
		output, g.NumVertices(), g.NumUndirectedEdges(), st.Size(), compress, permName)
	return nil
}

func writeText(output string, g *graph.CSR) error {
	f, err := os.Create(output)
	if err != nil {
		return err
	}
	if strings.HasSuffix(output, ".mtx") {
		err = graph.WriteMatrixMarket(f, g)
	} else {
		err = graph.WriteEdgeList(f, g)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
