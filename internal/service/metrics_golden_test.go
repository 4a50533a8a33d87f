package service

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"oraclesize/internal/campaign"
)

// TestMetricsGolden renders the multi-tenant /metrics page from a fixed,
// directly seeded state and compares it byte for byte with
// testdata/metrics.golden. The engine-pool series are process-global (every
// test in the binary moves them), so only their names and label sets are
// compared.
func TestMetricsGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Tenants: testRegistry(t)})
	tbl := s.table()
	interactive, bulk := tbl.states["interactive"], tbl.states["bulk"]

	// A finished campaign, run for real. One unit keeps its instance-cache
	// traffic deterministic.
	spec := &campaign.Spec{
		Name: "golden", Seed: 7, Trials: 1,
		Families: []string{"path"}, Sizes: []int{16},
		Tasks: []campaign.TaskSpec{{Task: "wakeup", Schemes: []string{"tree"}}},
	}
	if _, err := s.campaigns.submit(interactive, spec, 1); err != nil {
		t.Fatal(err)
	}
	if !s.CampaignWait(30 * time.Second) {
		t.Fatal("campaign did not finish")
	}

	// Park the lone worker on an untimed job, then queue two more for bulk,
	// so the per-tenant queue depths read interactive 0, bulk 2.
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	t.Cleanup(func() { close(gate) })
	park := func(name string) {
		j := &job{ctx: context.Background(), work: func() (any, error) { return nil, nil }, done: make(chan jobResult, 1)}
		if err := s.sched.Enqueue(name, 1, 0, j); err != nil {
			t.Fatal(err)
		}
	}
	park("interactive")
	<-entered
	park("bulk")
	park("bulk")

	m := s.metrics
	m.queued.Store(2)
	m.executing.Store(1)
	m.inflight.Store(3)
	m.dropped.Store(1)
	m.shardUnits.Store(40)
	m.dispatched.Store(12)
	m.respHits.Store(5)
	m.respMisses.Store(6)
	m.reloads.Store(2)
	s.campaigns.active.Store(1)
	bulk.campaigns.Store(1)

	record := func(endpoint string, ts *tenantState, code int, d time.Duration) {
		m.endpoint(endpoint).observe(code, d)
		ts.codes[code].Add(1)
		ts.ledger.requests.Add(1)
		switch code {
		case 429:
			m.throttled.Add(1)
			ts.throttled.Add(1)
		case 503:
			m.shed.Add(1)
			ts.shed.Add(1)
		}
	}
	record("/v1/run", interactive, 200, 300*time.Microsecond)
	record("/v1/run", interactive, 200, time.Millisecond)
	record("/v1/run", interactive, 200, 7*time.Millisecond)
	record("/v1/run", bulk, 200, 2*time.Millisecond)
	record("/v1/run", bulk, 429, 40*time.Microsecond)
	record("/v1/run", bulk, 429, 60*time.Microsecond)
	record("/v1/run", bulk, 503, 120*time.Microsecond)
	record("/v1/advice", interactive, 200, 450*time.Microsecond)
	record("/v1/shard", interactive, 200, 2*time.Second)
	record("/v1/campaign", interactive, 200, 3*time.Millisecond)
	record("/v1/campaign/{id}", interactive, 200, 800*time.Microsecond)
	record("/v1/campaign/{id}", interactive, 200, 20*time.Second)
	record("/v1/run", s.unknown, 401, 25*time.Microsecond)
	record("/healthz", s.anonymous, 200, 15*time.Microsecond)
	interactive.ledger.units.Add(41)
	interactive.ledger.queueNanos.Add(1_500_000)
	interactive.ledger.bytes.Add(91_234)
	bulk.ledger.queueNanos.Add(250_000_000)
	bulk.ledger.bytes.Add(777)

	got := getPath(t, s.Handler(), "/metrics").Body.String()
	checkGolden(t, "testdata/metrics.golden", maskEnginePool(got))
}

// maskEnginePool replaces the values of the process-global engine-pool
// samples with "X".
func maskEnginePool(page string) string {
	lines := strings.Split(page, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "oracled_engine_pool_") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " X"
		}
	}
	return strings.Join(lines, "\n")
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
