package membership

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMetricsGolden renders the fleet metrics from a fixed table — joins, a
// draining member, a leave, an eviction and a tenant-generation skew — and
// compares them byte for byte with testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	clk := newTableClock()
	tab := NewTable(Config{TTL: 10 * time.Second, Now: clk.Now})
	srv := &Server{
		Table:     tab,
		TenantGen: func() uint64 { return 5 },
		Advise: func() Advice {
			return Advice{BacklogUnits: 120, UnitSeconds: 0.125, TargetSeconds: 30, RecommendedWorkers: 3}
		},
	}
	for _, req := range []JoinRequest{
		{ID: "http://w1", TenantGen: 5},
		{ID: "http://w2", TenantGen: 3},
		{ID: "http://w3"},
		{ID: "http://w4"},
	} {
		if _, err := tab.Join(req); err != nil {
			t.Fatal(err)
		}
	}
	tab.Leave("http://w3")
	clk.Advance(8 * time.Second)
	if _, err := tab.Beat("http://w1", Heartbeat{TenantGen: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Beat("http://w2", Heartbeat{TenantGen: 3, Draining: true}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	if evicted := tab.Sweep(); len(evicted) != 1 {
		t.Fatalf("evicted %d members, want 1", len(evicted))
	}

	var buf bytes.Buffer
	srv.WriteMetrics(&buf)
	checkGolden(t, "testdata/metrics.golden", buf.String())
}

// checkGolden compares got with the golden file at path.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
