package promtext

import (
	"math"
	"strings"
	"testing"
)

func TestWriterBytes(t *testing.T) {
	var b strings.Builder
	p := NewWriter(&b)
	p.Counter("jobs_total", "Jobs run.", 3)
	p.FloatGauge("ratio", "A ratio.", 0.25)
	p.Family("requests_total", "counter", "Requests by code.")
	p.Int("requests_total", 7, "endpoint", "/v1/run", "code", "200")
	p.Family("latency_seconds", "histogram", "Latency.")
	p.Histogram("latency_seconds", []float64{0.0005, 1}, []int64{1, 2}, 1.5e-05, 4, "endpoint", "/x")
	want := `# HELP jobs_total Jobs run.
# TYPE jobs_total counter
jobs_total 3
# HELP ratio A ratio.
# TYPE ratio gauge
ratio 0.25
# HELP requests_total Requests by code.
# TYPE requests_total counter
requests_total{endpoint="/v1/run",code="200"} 7
# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{endpoint="/x",le="0.0005"} 1
latency_seconds_bucket{endpoint="/x",le="1"} 3
latency_seconds_bucket{endpoint="/x",le="+Inf"} 4
latency_seconds_sum{endpoint="/x"} 1.5e-05
latency_seconds_count{endpoint="/x"} 4
`
	if b.String() != want {
		t.Fatalf("page:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWriterConformance parses every emitted line back: HELP and TYPE
// precede samples, each family has one TYPE, and label values and help
// text round-trip through the spec's escapes — including the control
// characters Go's %q would have rendered as invalid \t and \x01 escapes.
func TestWriterConformance(t *testing.T) {
	hostile := []string{
		`plain`,
		`quote " inside`,
		`back\slash`,
		"tab\there",
		"new\nline",
		"ctrl\x01char",
		`trailing\`,
		"unicode é ✓",
		``,
	}
	var b strings.Builder
	p := NewWriter(&b)
	p.Family("hostile_total", "counter", "Help with a back\\slash and a new\nline.")
	for i, v := range hostile {
		p.Int("hostile_total", int64(i+1), "id", v)
	}
	p.Family("values", "gauge", "Special float values.")
	for i, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e21, -0.5} {
		p.Float("values", v, "i", string(rune('a'+i)))
	}
	p.Family("h", "histogram", "Histogram with a hostile label.")
	p.Histogram("h", []float64{1, 2}, []int64{0, 1}, 1.5, 2, "id", hostile[3])

	samples, err := Parse(b.String())
	if err != nil {
		t.Fatalf("%v\npage:\n%s", err, b.String())
	}
	for i, v := range hostile {
		s := samples[i]
		if s.Name != "hostile_total" || s.Labels["id"] != v || s.Value != float64(i+1) {
			t.Errorf("sample %d = %+v, want id %q value %d", i, s, v, i+1)
		}
	}
	if got := samples[len(hostile)+2]; !math.IsNaN(got.Value) {
		t.Errorf("NaN sample parsed back as %v", got.Value)
	}
	last := samples[len(samples)-1]
	if last.Name != "h_count" || last.Labels["id"] != hostile[3] || last.Value != 2 {
		t.Errorf("last sample = %+v", last)
	}
}

// TestParseRejects checks that the conformance parser catches each rule
// it enforces, so a page that parses is known to follow them.
func TestParseRejects(t *testing.T) {
	head := "# HELP m M.\n# TYPE m gauge\n"
	for name, page := range map[string]string{
		"sample before TYPE":  "m 1\n",
		"TYPE without HELP":   "# TYPE m gauge\nm 1\n",
		"second TYPE":         head + "# TYPE m gauge\nm 1\n",
		"Go %q tab escape":    head + "m{id=\"a\\tb\"} 1\n",
		"Go %q hex escape":    head + "m{id=\"a\\x01b\"} 1\n",
		"unterminated label":  head + "m{id=\"a} 1\n",
		"bad value":           head + "m one\n",
		"family reopened":     head + "m 1\n# HELP n N.\n# TYPE n gauge\nn 1\nm 2\n",
		"duplicate label":     head + "m{a=\"1\",a=\"2\"} 1\n",
		"bucket without le":   "# HELP h H.\n# TYPE h histogram\nh_bucket 1\n",
		"bare histogram name": "# HELP h H.\n# TYPE h histogram\nh 1\n",
		"missing newline":     head + "m 1",
	} {
		if _, err := Parse(page); err == nil {
			t.Errorf("%s: Parse accepted %q", name, page)
		}
	}
}
