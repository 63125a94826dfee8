package observe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestPrometheusFormat(t *testing.T) {
	ms := NewMetricSet()
	ms.Counter("leiden_passes_total", "passes performed", 3)
	ms.Gauge("leiden_phase_seconds", "wall time per phase", 0.25, L("phase", "move"))
	ms.Gauge("leiden_phase_seconds", "wall time per phase", 0.0625, L("phase", "refine"))
	ms.Gauge("weird_label", "", 1, L("note", "a\"b\\c\nd"))

	var buf bytes.Buffer
	if err := ms.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP leiden_passes_total passes performed\n",
		"# TYPE leiden_passes_total counter\n",
		"leiden_passes_total 3\n",
		"# TYPE leiden_phase_seconds gauge\n",
		`leiden_phase_seconds{phase="move"} 0.25` + "\n",
		`leiden_phase_seconds{phase="refine"} 0.0625` + "\n",
		`weird_label{note="a\"b\\c\nd"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE headers appear exactly once per metric name even with
	// several labeled samples.
	if n := strings.Count(out, "# TYPE leiden_phase_seconds"); n != 1 {
		t.Errorf("TYPE header for leiden_phase_seconds appears %d times, want 1", n)
	}
	if strings.Contains(out, "# HELP weird_label") {
		t.Errorf("empty help string must not emit a HELP line:\n%s", out)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	ms := NewMetricSet()
	ms.Counter("pool_steals_total", "successful steals", 42)
	ms.Gauge("occupancy", "hashtable occupancy", 0.5, L("pass", "0"))

	var buf bytes.Buffer
	if err := ms.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Metric
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d metrics, want 2", len(back))
	}
	if back[0].Name != "pool_steals_total" || back[0].Value != 42 || back[0].Type != TypeCounter {
		t.Errorf("metric 0 mismatch: %+v", back[0])
	}
	if len(back[1].Labels) != 1 || back[1].Labels[0] != L("pass", "0") {
		t.Errorf("metric 1 labels mismatch: %+v", back[1])
	}
}
