package core

import (
	"testing"

	"gveleiden/internal/gen"
	"gveleiden/internal/quality"
)

// TestAsyncDeltaQTelescopes is the asynchronous counterpart of
// TestDeterministicDeltaQTelescopes. Parallel workers decide against
// community totals their peers are changing, so summed decision-time
// gains used to overstate the final quality by 1–2×10⁻³ on two cores;
// the move phase now reports the realized quality difference, which
// telescopes for every objective and resolution whatever the schedule.
func TestAsyncDeltaQTelescopes(t *testing.T) {
	g, _ := gen.SocialNetwork(4000, 10, 32, 0.3, 3)
	singleton := make([]uint32, g.NumVertices())
	for i := range singleton {
		singleton[i] = uint32(i)
	}
	for _, tc := range []struct {
		name  string
		obj   Objective
		gamma float64
	}{
		{"modularity", ObjectiveModularity, 1},
		{"modularity-γ0.5", ObjectiveModularity, 0.5},
		{"cpm", ObjectiveCPM, 0.05},
	} {
		for _, algo := range []string{"leiden", "louvain"} {
			opt := DefaultOptions()
			opt.Threads = 4
			opt.Objective = tc.obj
			opt.Resolution = tc.gamma
			var res *Result
			if algo == "leiden" {
				res = Leiden(g, opt)
			} else {
				res = Louvain(g, opt)
			}
			var q0 float64
			if tc.obj == ObjectiveCPM {
				q0 = quality.CPM(g, singleton, tc.gamma)
			} else {
				q0 = quality.ModularityResolution(g, singleton, tc.gamma)
			}
			gain := 0.0
			for _, ps := range res.Stats.Passes {
				gain += ps.DeltaQ
			}
			// Same asymmetric bound as the deterministic test: only the
			// unreported gain of splitting disconnected communities may
			// lift the final quality above the telescope.
			if diff := res.Quality - (q0 + gain); diff < -1e-9 || diff > 0.01 {
				t.Errorf("%s %s: singleton %g + ΣΔQ %g = %g, final quality %g (gap %g)",
					tc.name, algo, q0, gain, q0+gain, res.Quality, diff)
			}
		}
	}
}
