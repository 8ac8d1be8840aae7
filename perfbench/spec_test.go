package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func sameMetrics(t *testing.T, kind string, got []specMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness reports %d", len(got), kind, len(want))
	}
	for i := range want {
		if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
			t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the harness reports %s (%s)",
				kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
		}
	}
}

// TestSpecMatchesHarness pins BENCHMARK.json to what the harness
// prints: the same workloads, and the same metrics with the same units.
func TestSpecMatchesHarness(t *testing.T) {
	var s spec
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &s)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	sameMetrics(t, "end_to_end", s.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", s.PerLayer, perLayer)
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			t.Errorf("end-to-end metric %s has no bound", m.Name)
		}
	}
}

// TestSupersedesCoversOldBenchFiles checks that every entry of the
// older BENCH_*.json files names the workload and declared metrics that
// replace it.
func TestSupersedesCoversOldBenchFiles(t *testing.T) {
	var doc struct {
		Entries []struct {
			File     string   `json:"file"`
			Entry    string   `json:"entry"`
			Workload string   `json:"workload"`
			Metrics  []string `json:"metrics"`
		} `json:"entries"`
	}
	readJSON(t, "supersedes.json", &doc)
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	known := map[string]bool{}
	for _, w := range workloadNames {
		known[w] = true
	}
	mapped := map[string]bool{}
	for _, e := range doc.Entries {
		mapped[e.File+" "+e.Entry] = true
		if !known[e.Workload] {
			t.Errorf("%s %s: unknown workload %q", e.File, e.Entry, e.Workload)
		}
		for _, m := range e.Metrics {
			if !declared[m] {
				t.Errorf("%s %s: undeclared metric %q", e.File, e.Entry, m)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		var old struct {
			Benchmarks map[string]json.RawMessage `json:"benchmarks"`
		}
		readJSON(t, f, &old)
		for name := range old.Benchmarks {
			if !mapped[filepath.Base(f)+" "+name] {
				t.Errorf("%s %s is not mapped in supersedes.json", filepath.Base(f), name)
			}
		}
	}
}

// TestSmoke runs one untraced and one traced round of every workload
// with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	var out strings.Builder
	if code := once(&out, 1, ""); code != 0 {
		t.Fatalf("smoke run failed:\n%s", out.String())
	}
}
