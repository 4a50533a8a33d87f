package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the per-layer table and the
// end-to-end metric names in step with BENCHMARK.json at the repository
// root, which the result line is checked against.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i][0] || m.Unit != layerMetrics[i][1] {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], table has %s [%s]",
				i, m.Name, m.Unit, layerMetrics[i][0], layerMetrics[i][1])
		}
	}
	want := map[string]string{"throughput_vs_ref": "ratio", "latency_p50_vs_ref": "ratio", "peak_rss_mb": "MiB", "setup_s": "s"}
	if len(b.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, want %d", len(b.EndToEnd), len(want))
	}
	for _, m := range b.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s] is not what the workloads report", m.Name, m.Unit)
		}
	}
}
