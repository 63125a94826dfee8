package gen

import (
	"fmt"

	"gveleiden/internal/graph"
)

// Names lists the generators Named accepts, in the order the CLIs
// advertise them.
const Names = "web|social|road|kmer|er|ba|rmat"

// Named builds the in-memory graph that gveleiden's and gveserve's -gen
// flag names, at n vertices. These are the classic generators, not the
// streamed family of BuildStreamedClass that gveconvert -gen uses: the
// same name gives a different graph there.
func Named(name string, n int, seed uint64) (*graph.CSR, error) {
	switch name {
	case "web":
		g, _ := WebGraph(n, 20, seed)
		return g, nil
	case "social":
		g, _ := SocialNetwork(n, 20, 64, 0.35, seed)
		return g, nil
	case "road":
		g, _ := RoadNetwork(n, seed)
		return g, nil
	case "kmer":
		g, _ := KmerGraph(n, seed)
		return g, nil
	case "er":
		return ErdosRenyi(n, n*8, seed), nil
	case "ba":
		return BarabasiAlbert(n, 8, seed), nil
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return RMAT(scale, n*8, 0, 0, 0, seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", name)
	}
}
