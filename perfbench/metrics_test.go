package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics a run prints identical,
// in names and units, to the lists in the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers outcome
	setEndToEnd(&e2e, 0, 0, 0, 0, 0)
	layers.setLayers(nil)
	for _, c := range []struct {
		kind  string
		got   map[string]metric
		specs []struct{ Name, Unit string }
	}{{"end_to_end", e2e.metrics, spec.EndToEnd}, {"per_layer", layers.metrics, spec.PerLayer}} {
		if len(c.got) != len(c.specs) {
			t.Errorf("%s: a run prints %d metrics, BENCHMARK.json lists %d", c.kind, len(c.got), len(c.specs))
		}
		for _, s := range c.specs {
			m, ok := c.got[s.Name]
			if !ok {
				t.Errorf("%s: %s is listed but not printed", c.kind, s.Name)
			} else if m.Unit != s.Unit {
				t.Errorf("%s: %s printed in %s, listed in %s", c.kind, s.Name, m.Unit, s.Unit)
			}
		}
	}
}
