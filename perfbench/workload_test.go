package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oraclesize/internal/service"
	"oraclesize/internal/tenant"
)

// tenantServer is an in-process oracled in multi-tenant mode with the
// benchmark's generated tenants.
func tenantServer(t *testing.T, seed int64) (*httptest.Server, []tenant.Spec) {
	t.Helper()
	specs := benchTenants(seed)
	reg, err := tenant.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Tenants: reg})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Stop()
	})
	return srv, specs
}

// send issues requests from..to-1 of src one at a time.
func send(t *testing.T, g *loadgen, src *tupleSource, from, to int64) {
	t.Helper()
	var buf bytes.Buffer
	for i := from; i < to; i++ {
		now := time.Now()
		if _, c := g.do(src.next(i), &buf, now, now, 0); c.failed != 0 {
			t.Fatalf("request %d failed: %s", i, c.firstWrong)
		}
	}
}

func TestParseProm(t *testing.T) {
	p, err := parseProm(strings.NewReader(`# HELP x y
# TYPE oracled_requests_total counter
oracled_requests_total{endpoint="/v1/run",code="200"} 7
oracled_requests_total{endpoint="/v1/advice",code="200"} 2
oracled_requests_total_extra 100
oracled_shed_total 3
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("oracled_requests_total"); got != 9 {
		t.Fatalf("sum = %v, want 9 (a longer metric name must not match)", got)
	}
	if got := p.sum("oracled_requests_total", `endpoint="/v1/run"`); got != 7 {
		t.Fatalf("labelled sum = %v, want 7", got)
	}
	if got := p.sum("oracled_shed_total"); got != 3 {
		t.Fatalf("unlabelled = %v", got)
	}
	if _, err := parseProm(strings.NewReader("oracled_x notanumber\n")); err == nil {
		t.Fatal("bad value parsed")
	}
}

// TestMetricsDeltaAgainstServer: counter deltas scraped from a real
// service.Server match the requests the test sent.
func TestMetricsDeltaAgainstServer(t *testing.T) {
	srv, specs := tenantServer(t, 5)
	src, err := hotTuples(5, specs)
	if err != nil {
		t.Fatal(err)
	}
	one := &tupleSource{tenants: specs, fixed: src.fixed[:1]}
	g := newLoadgen(srv.URL, 1)
	defer g.close()
	before, err := scrape(g.client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	send(t, g, one, 0, 10)
	after, err := scrape(g.client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := serviceDeltaOf(before, after, "/v1/run", "/v1/advice")
	if d.requests != 10 || d.respMisses != 1 || d.respHits != 9 {
		t.Fatalf("delta = %+v, want 10 requests: 1 miss then 9 hits", d)
	}
	if d.handlerSec <= 0 || d.jobs != 1 || d.batches != 1 {
		t.Fatalf("delta = %+v, want handler time and one executed job", d)
	}
	if d.queueSec < 0 || d.shed != 0 || d.throttled != 0 {
		t.Fatalf("delta = %+v", d)
	}
	m := metricSet{}
	d.metrics(m)
	if got := m["service.respcache_hit_ratio"].Value; got != 0.9 {
		t.Fatalf("hit ratio = %v, want 0.9", got)
	}
}

// TestServeHotUsesResponseCache checks serve-hot's claim: after warm-up
// nearly every request is a response-cache hit, and every response passes
// the checks against the in-process expectation.
func TestServeHotUsesResponseCache(t *testing.T) {
	srv, specs := tenantServer(t, 1)
	src, err := hotTuples(1, specs)
	if err != nil {
		t.Fatal(err)
	}
	g := newLoadgen(srv.URL, 2)
	defer g.close()
	send(t, g, src, 0, hotTupleCount)
	before, err := scrape(g.client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	send(t, g, src, hotTupleCount, 10*hotTupleCount)
	after, err := scrape(g.client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := serviceDeltaOf(before, after, "/v1/run", "/v1/advice")
	if r := ratio(d.respHits, d.respHits+d.respMisses); r < 0.99 {
		t.Fatalf("serve-hot response-cache hit ratio %v < 0.99 (%+v)", r, d)
	}
	if d.jobs != 0 {
		t.Fatalf("serve-hot executed %v jobs after warm-up, want 0", d.jobs)
	}
}

// TestServeColdBypassesCaches checks serve-cold's claim: fresh instance
// seeds miss both the response cache and the instance cache.
func TestServeColdBypassesCaches(t *testing.T) {
	srv, specs := tenantServer(t, 2)
	src, err := coldTuples(2, specs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := src.tuple(i).seed
		if seen[s] {
			t.Fatalf("instance seed %d reused at request %d", s, i)
		}
		seen[s] = true
	}
	g := newLoadgen(srv.URL, 2)
	defer g.close()
	before, err := scrape(g.client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	send(t, g, src, 0, 200)
	after, err := scrape(g.client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := serviceDeltaOf(before, after, "/v1/run", "/v1/advice")
	if d.respHits != 0 || d.respMisses != 200 {
		t.Fatalf("serve-cold response cache: %v hits, %v misses; want 0 and 200", d.respHits, d.respMisses)
	}
	if r := ratio(d.instHits, d.instHits+d.instMisses); r > 0.01 {
		t.Fatalf("serve-cold instance-cache hit ratio %v, want ~0", r)
	}
}

// TestSweepCompactsAndMatchesLocal checks sweep-fleet's claims on its real
// spec: the merged warehouse equals the local run, and it compacted.
func TestSweepCompactsAndMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 4,000-unit sweep")
	}
	spec := sweepSpec(3)
	want, err := localCanon(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ids atomic.Uint64
	tr := newTracer()
	sw, err := runSweepOnce(spec, t.TempDir(), want, &ids, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sw.cnt.wrong != 0 || sw.cnt.failed != 0 {
		t.Fatalf("sweep failed: %+v", sw.cnt)
	}
	if sw.units != 4000 || sw.records != 4000 {
		t.Fatalf("sweep merged %d units, %d records; want 4000", sw.units, sw.records)
	}
	if sw.compactions < 1 {
		t.Fatal("sweep-fleet did not compact the warehouse")
	}
	if r := ratio(sw.svc.instHits, sw.svc.instHits+sw.svc.instMisses); r < 0.2 {
		t.Fatalf("sweep-fleet instance-cache hit ratio %v, want schemes to share instances", r)
	}
	// Every dispatch has a matching worker handler span inside it.
	st := selfTimes(tr.snapshot())
	if st["cluster.dispatch"].Count != len(sw.dispatches) || st["service.shard"].Count == 0 {
		t.Fatalf("spans: %d dispatches, %d handler spans, %d dispatch records",
			st["cluster.dispatch"].Count, st["service.shard"].Count, len(sw.dispatches))
	}

	// A warehouse that differs from the reference is a wrong output.
	bad := append([]byte(nil), want...)
	bad[len(bad)/2] ^= 1
	sw, err = runSweepOnce(spec, t.TempDir(), bad, &ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sw.cnt.wrong != 1 {
		t.Fatalf("mismatched export not counted as wrong: %+v", sw.cnt)
	}
}

func TestChecksRejectWrongOutputs(t *testing.T) {
	wake := newTuple("/v1/run", "grid", 16, 1, "wakeup")
	bcast := newTuple("/v1/run", "grid", 16, 1, "broadcast")
	run := func(task, scheme string, nodes, messages int, complete bool) []byte {
		return []byte(fmt.Sprintf(`{"family":"grid","nodes":%d,"task":%q,"scheme":%q,"messages":%d,"informed":%d,"complete":%v}`,
			nodes, task, scheme, messages, nodes, complete))
	}
	cases := []struct {
		name string
		t    *tuple
		body []byte
		ok   bool
	}{
		{"wakeup n-1", wake, run("wakeup", "tree", 16, 15, true), true},
		{"wakeup extra message", wake, run("wakeup", "tree", 16, 16, true), false},
		{"incomplete", wake, run("wakeup", "tree", 16, 15, false), false},
		{"wrong scheme", wake, run("wakeup", "flooding", 16, 15, true), false},
		{"broadcast within 3(n-1)", bcast, run("broadcast", "light-tree", 16, 45, true), true},
		{"broadcast over 3(n-1)", bcast, run("broadcast", "light-tree", 16, 46, true), false},
		{"not json", wake, []byte("oops"), false},
	}
	for _, c := range cases {
		if err := c.t.check(c.body); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// With an in-process expectation, a plausible but different answer fails.
	wake.want = &expectation{nodes: 16, messages: 15, adviceBits: 99}
	if err := wake.check(run("wakeup", "tree", 16, 15, true)); err == nil {
		t.Error("advice_bits mismatch passed")
	}
}
