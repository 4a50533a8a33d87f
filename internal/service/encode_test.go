package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// stdlibEncode is the identity target: what writeJSON produced before the
// fast encoders existed (json.NewEncoder with HTML escaping and a trailing
// newline).
func stdlibEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFastEncodersMatchStdlib is the golden byte-identity contract for the
// append-style encoders: for every response shape — omitempty fields
// present and absent, strings that need escaping, multi-key maps —
// encodeResponse must produce exactly the bytes the stdlib encoder does.
func TestFastEncodersMatchStdlib(t *testing.T) {
	advice := []*adviceResponse{
		{Family: "random-sparse", Nodes: 256, Edges: 700, MaxDegree: 9,
			Task: "broadcast", Scheme: "light-tree", Oracle: "light-tree",
			TotalBits: 1234, MaxNodeBits: 12, NonEmptyNodes: 200, WallNS: 987654},
		{Family: "cycle", Nodes: 2, Task: "wakeup", WallNS: -1,
			Advice: []nodeAdvice{
				{Node: 0, Label: 17, Bits: 3, S: "101"},
				{Node: 1, Label: -9, Bits: 0, S: ""},
			}},
		// Escaping fallback: quotes, backslashes, HTML characters, UTF-8,
		// and control bytes must round through encoding/json verbatim.
		{Family: `qu"ote\back`, Task: "<b>&amp;</b>", Scheme: "päth", Oracle: "a\x01b",
			Advice: []nodeAdvice{{S: "bits<>&\"\\ ok"}}},
	}
	for i, r := range advice {
		got := encodeResponse(nil, r)
		want := stdlibEncode(t, r)
		if !bytes.Equal(got, want) {
			t.Errorf("advice[%d]:\nfast:   %s\nstdlib: %s", i, got, want)
		}
	}

	runs := []*runResponse{
		{Family: "random-sparse", Nodes: 256, Edges: 700, Task: "broadcast",
			Scheme: "light-tree", Oracle: "light-tree", Algorithm: "tree-broadcast",
			Engine: "queue", Scheduler: "fifo", AdviceBits: 555, Messages: 255,
			MessageBits: 4096, ByKind: map[string]int{"token": 255, "ack": 12, "probe": 1},
			MaxNodeSends: 9, Rounds: 17, Informed: 256, Complete: true, WallNS: 123456},
		// goroutines engine: no scheduler, no by_kind, a check error.
		{Family: "cycle", Nodes: 4, Edges: 4, Task: "wakeup", Scheme: "tree",
			Oracle: "tree", Algorithm: "wakeup", Engine: "goroutines",
			CheckError: `only 3 of 4 woke ("late" <node>)`, WallNS: 1},
		{},
	}
	for i, r := range runs {
		got := encodeResponse(nil, r)
		want := stdlibEncode(t, r)
		if !bytes.Equal(got, want) {
			t.Errorf("run[%d]:\nfast:   %s\nstdlib: %s", i, got, want)
		}
	}
}

// TestServedBytesMatchStdlibRoundtrip checks byte identity end to end: the
// body the handler tree serves (fast encoder, miss path) and the body a
// repeat request gets (cache hit) must both equal the stdlib encoding of
// the decoded response — i.e. exactly what the pre-fast-lane server sent.
func TestServedBytesMatchStdlibRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/v1/run", map[string]any{"family": "random-sparse", "n": 64, "seed": 5, "task": "broadcast"}},
		{"/v1/run", map[string]any{"family": "cycle", "n": 32, "seed": 2, "task": "wakeup", "scheduler": "random"}},
		{"/v1/advice", map[string]any{"family": "random-sparse", "n": 64, "seed": 5, "task": "broadcast"}},
		{"/v1/advice", map[string]any{"family": "cycle", "n": 16, "seed": 1, "task": "wakeup", "include_advice": true}},
	}
	for _, tc := range cases {
		miss := postJSON(t, s.Handler(), tc.path, tc.body)
		if miss.Code != http.StatusOK {
			t.Fatalf("%s %v: status %d: %s", tc.path, tc.body, miss.Code, miss.Body.String())
		}
		hit := postJSON(t, s.Handler(), tc.path, tc.body)
		if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
			t.Errorf("%s: cache hit bytes differ from miss bytes", tc.path)
		}
		var want []byte
		if tc.path == "/v1/run" {
			v := decode[runResponse](t, miss)
			want = stdlibEncode(t, &v)
		} else {
			v := decode[adviceResponse](t, miss)
			want = stdlibEncode(t, &v)
		}
		if !bytes.Equal(miss.Body.Bytes(), want) {
			t.Errorf("%s: served bytes differ from stdlib encoding:\nserved: %s\nstdlib: %s",
				tc.path, miss.Body.Bytes(), want)
		}
		if got := miss.Header().Get("Content-Length"); got != fmt.Sprint(miss.Body.Len()) {
			t.Errorf("%s: Content-Length = %q, body is %d bytes", tc.path, got, miss.Body.Len())
		}
	}
}

// TestResponseCacheServesRepeatsWithoutQueue: a repeat of a deterministic
// request must be answered from the response cache — no job dispatched —
// while the goroutines engine must never be cached.
func TestResponseCacheServesRepeatsWithoutQueue(t *testing.T) {
	s := newTestServer(t, Config{})
	body := map[string]any{"family": "random-sparse", "n": 32, "seed": 7, "task": "broadcast"}
	for i := 0; i < 3; i++ {
		if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got := s.metrics.respHits.Load(); got != 2 {
		t.Errorf("respHits = %d, want 2", got)
	}
	if got := s.metrics.dispatched.Load(); got != 1 {
		t.Errorf("dispatched jobs = %d, want 1 (repeats must bypass the queue)", got)
	}

	// The goroutines engine races real goroutines; every request executes.
	conc := map[string]any{"family": "random-sparse", "n": 32, "seed": 7, "task": "wakeup", "engine": "goroutines"}
	for i := 0; i < 2; i++ {
		if w := postJSON(t, s.Handler(), "/v1/run", conc); w.Code != http.StatusOK {
			t.Fatalf("goroutines request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got := s.metrics.respHits.Load(); got != 2 {
		t.Errorf("respHits after goroutines requests = %d, want 2 (engine must not be cached)", got)
	}
	if got := s.metrics.dispatched.Load(); got != 3 {
		t.Errorf("dispatched jobs = %d, want 3", got)
	}
}

// TestResponseCacheDisabled: a negative capacity turns the fast lane off
// and every request executes.
func TestResponseCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{ResponseCacheCapacity: -1})
	if s.responses != nil {
		t.Fatal("responses cache built despite negative capacity")
	}
	body := map[string]any{"family": "random-sparse", "n": 32, "seed": 7, "task": "broadcast"}
	for i := 0; i < 2; i++ {
		if w := postJSON(t, s.Handler(), "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
	if got := s.metrics.dispatched.Load(); got != 2 {
		t.Errorf("dispatched jobs = %d, want 2", got)
	}
	if got := s.metrics.respHits.Load(); got != 0 {
		t.Errorf("respHits = %d, want 0", got)
	}
}

// TestRespCacheEvictionBounded mirrors the instance cache's leak
// regression: churning far more keys than capacity through the cache must
// leave the map bounded, and oversized bodies must not be stored. The
// order list's backing-array bound is pinned on fifo.Queue itself
// (TestQueueChurnStaysBounded).
func TestRespCacheEvictionBounded(t *testing.T) {
	c := newRespCache(4)
	for i := 0; i < 10_000; i++ {
		c.put([]byte(fmt.Sprintf("key-%d", i)), []byte("{}"))
	}
	if len(c.entries) > 4 {
		t.Errorf("entries = %d, want <= 4", len(c.entries))
	}
	if live := c.order.Len(); live > 4 {
		t.Errorf("live order window = %d, want <= 4", live)
	}
	c.put([]byte("big"), make([]byte, maxCachedResponse+1))
	if c.get([]byte("big")) != nil {
		t.Error("oversized body was cached")
	}
}

// TestRespCacheHoldsCapacity churns many keys through response caches of
// awkward capacities and requires the live entry count to reach exactly the
// configured capacity and never exceed it.
func TestRespCacheHoldsCapacity(t *testing.T) {
	for _, capacity := range []int{1, 3, 5, 100, 128} {
		c := newRespCache(capacity)
		peak := 0
		for i := 0; i < 10_000; i++ {
			c.put([]byte(fmt.Sprintf("key-%d", i)), []byte("{}"))
			peak = max(peak, len(c.entries))
		}
		if peak != capacity {
			t.Errorf("capacity %d: peak live entries %d, want exactly %d", capacity, peak, capacity)
		}
	}
}

// TestQueuedJobsSpreadAcrossWorkers: with both workers parked and a backlog
// queued, a worker that frees up must take one queued job, not the whole
// backlog — otherwise the other worker, once free, idles while jobs wait
// behind the first.
func TestQueuedJobsSpreadAcrossWorkers(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, ResponseCacheCapacity: -1})
	const parked, backlog = 2, 4
	var gates [parked + backlog]chan struct{}
	for k := range gates {
		gates[k] = make(chan struct{})
	}
	var released [len(gates)]bool
	release := func(k int) {
		if !released[k] {
			released[k] = true
			close(gates[k])
		}
	}
	// entries counts testHook calls; call k blocks on gates[k].
	var entries atomic.Int64
	s.testHook = func() {
		<-gates[entries.Add(1)-1]
	}
	var wg sync.WaitGroup
	codes := make(chan int, len(gates))
	// finish releases every gate and waits for the requests, so a failed
	// wait cannot leave Stop blocked behind a parked worker.
	finish := func() {
		for k := range gates {
			release(k)
		}
		wg.Wait()
	}
	t.Cleanup(finish)
	body := map[string]any{"family": "random-sparse", "n": 16, "seed": 1, "task": "wakeup"}
	post := func() {
		defer wg.Done()
		codes <- postJSON(t, s.Handler(), "/v1/run", body).Code
	}
	wg.Add(parked)
	for i := 0; i < parked; i++ {
		go post()
	}
	waitFor(t, "both workers parked", func() bool { return entries.Load() == parked })
	wg.Add(backlog)
	for i := 0; i < backlog; i++ {
		go post()
	}
	waitFor(t, "backlog queued", func() bool { return s.metrics.queued.Load() == backlog })

	release(0)
	waitFor(t, "first worker took a queued job", func() bool { return entries.Load() == 3 })
	release(1)
	waitFor(t, "second worker took a queued job", func() bool { return entries.Load() == 4 })

	finish()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("status %d, want 200", code)
		}
	}
	if got := s.metrics.dispatched.Load(); got != parked+backlog {
		t.Errorf("dispatched = %d, want %d", got, parked+backlog)
	}
}

// postAllocs measures allocations per request through the full handler
// tree, harness included (httptest request + recorder construction).
func postAllocs(t *testing.T, h http.Handler, path string, body map[string]any) float64 {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(data)))
	if w.Code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	return testing.AllocsPerRun(200, func() {
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatal("request failed")
		}
	})
}

// TestAllocBudgetHotPaths pins the steady-state allocation budget of the
// /v1/advice and /v1/run fast lanes. The measured number includes ~25
// allocations of httptest harness per request; the handler path itself
// (read, decode, key, cache lookup, write) holds the rest. Before the fast
// lane the same measurement was ~90 allocations and ~114 KB per request.
func TestAllocBudgetHotPaths(t *testing.T) {
	s := newTestServer(t, Config{})
	const budget = 45
	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/advice", map[string]any{"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast"}},
		{"/v1/run", map[string]any{"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast"}},
	} {
		if got := postAllocs(t, s.Handler(), tc.path, tc.body); got > budget {
			t.Errorf("%s: %.1f allocs/request, budget %d", tc.path, got, budget)
		}
	}
}
