package cluster

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/warehouse"
)

// TestMetricsGolden renders the coordinator's /metrics page from a fixed,
// directly seeded run — completed, failed and in-flight shards on three
// workers, a draining worker, an open breaker and a compacted warehouse —
// and compares it byte for byte with testdata/metrics.golden.
func TestMetricsGolden(t *testing.T) {
	const w1, w2, w3 = "http://w1:8080", "http://w2:8080", "http://w3:8080"
	cfg := fastConfig(w1, w2, w3)
	cfg.ShardSize = 4
	cfg.Clock = newFakeClock()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, wk := range c.fleet.snapshot() {
		wk.markUp()
	}
	wh, err := warehouse.Open(t.TempDir(), warehouse.Options{CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	core := &Core{cfg: c.cfg, m: c.m, st: newRunState(&c.cfg, c.m, 3, 20, make([]bool, 20), wh), fleet: c.fleet}
	c.cur = &activeRun{core: core}

	batches := func(l Lease) [][]campaign.Record {
		out := make([][]campaign.Record, l.Shard.Len())
		for i := range out {
			unit := fmt.Sprintf("golden/u%03d", l.Shard.Start+i)
			out[i] = []campaign.Record{{Kind: "task", Unit: unit, Family: "path", N: 16, Task: "wakeup", Scheme: "tree", Seed: int64(l.Shard.Start + i)}}
		}
		return out
	}
	acquire := func(i int) Lease {
		l, ok := core.Acquire(i)
		if !ok {
			t.Fatalf("worker %d got no lease", i)
		}
		return l
	}
	complete := func(l Lease, d time.Duration) {
		if _, err := core.Complete(l, batches(l), d); err != nil {
			t.Fatal(err)
		}
	}
	complete(acquire(0), 40*time.Millisecond)
	complete(acquire(0), 700*time.Millisecond)
	if err := wh.Compact(); err != nil {
		t.Fatal(err)
	}
	complete(acquire(1), 90*time.Second)
	core.Fail(acquire(1), errors.New("boom"), 3*time.Millisecond)
	core.Fail(acquire(1), errors.New("boom"), 500*time.Second)
	acquire(2) // stays in flight
	core.SetWorkerDraining(w3, true)
	c.m.hedges.Store(1)
	c.m.reassignments.Store(2)

	rec := httptest.NewRecorder()
	c.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	checkGolden(t, "testdata/metrics.golden", rec.Body.String())
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
