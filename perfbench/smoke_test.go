package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryMetricEmitted runs every workload at a tiny scale in
// both modes and checks that the verdict line carries exactly the
// metrics BENCHMARK.json declares for the mode, each with its unit.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := e2e
			if trace == "1" {
				want = layers
			}
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", trace, "--scale", "0.005", "--dir", dir}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%s: metric %s is not declared", w.name, trace, name)
				}
			}
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		// Inputs are removed after each run; the three traces remain.
		t.Errorf("scratch directory holds %d files, want the 3 trace files", len(entries))
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the code's metric lists and
// BENCHMARK.json in step without running anything.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		code []metricDef
		json map[string]string
	}{{endToEnd, e2e}, {perLayer, layers}} {
		if len(c.code) != len(c.json) {
			t.Errorf("code declares %d metrics, BENCHMARK.json %d", len(c.code), len(c.json))
		}
		for _, d := range c.code {
			if u, ok := c.json[d.name]; !ok || u != d.unit {
				t.Errorf("metric %s (%s): BENCHMARK.json has unit %q, present %v", d.name, d.unit, u, ok)
			}
		}
	}
}
