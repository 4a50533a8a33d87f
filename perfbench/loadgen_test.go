package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stub answers every request after a fixed delay.
func stub(t *testing.T, delay time.Duration, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func okSource(i int64) *request {
	return &request{path: "/v1/run", body: []byte("{}"), check: func([]byte) error { return nil }}
}

// TestOpenLoopTimesFromDue overloads a one-connection generator: requests
// due every 2ms against a 4ms server queue up, and their latency must be
// counted from when they were due, not from when they could be sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const delay = 4 * time.Millisecond
	g := newLoadgen(stub(t, delay, http.StatusOK, "{}").URL, 1)
	defer g.close()
	var idx atomic.Int64
	p := g.openLoop(500, 100*time.Millisecond, okSource, &idx)
	if len(p.samples) != 50 || p.cnt.failed != 0 {
		t.Fatalf("got %d samples, %d failed; want 50 due slots, none failed", len(p.samples), p.cnt.failed)
	}
	var maxFromDue time.Duration
	for _, s := range p.samples {
		if s.due%(2*time.Millisecond) != 0 {
			t.Fatalf("due time %v is off the 2ms schedule", s.due)
		}
		fromDue, fromSend := s.done-s.due, s.done-s.sent
		if fromSend < delay || fromDue < fromSend {
			t.Fatalf("sample %+v: from due %v, from send %v, delay %v", s, fromDue, fromSend, delay)
		}
		maxFromDue = max(maxFromDue, fromDue)
	}
	// The last request waits behind ~49 slow ones: ~49×(4-2)ms behind.
	if maxFromDue < 60*time.Millisecond {
		t.Fatalf("worst latency from due = %v; the backlog is not being counted", maxFromDue)
	}
	lat, failed, _ := p.latencies()
	if d := summarize(lat, failed); d.P99 < ms(maxFromDue)*0.9 {
		t.Fatalf("p99 %v ms misses the backlog (max %v)", d.P99, maxFromDue)
	}
}

// TestOpenLoopLagIsGeneratorOnly: against a fast server the generator
// sends on time, and reported lag stays small.
func TestOpenLoopLagIsGeneratorOnly(t *testing.T) {
	g := newLoadgen(stub(t, 0, http.StatusOK, "{}").URL, 2)
	defer g.close()
	var idx atomic.Int64
	p := g.openLoop(200, 200*time.Millisecond, okSource, &idx)
	_, _, lags := p.latencies()
	if lag := quantileMS(lags, 50); lag > 5 {
		t.Fatalf("median generator lag %v ms against an idle server", lag)
	}
	if int(idx.Load()) != len(p.samples) || len(p.samples) != 40 {
		t.Fatalf("sent %d requests with %d samples, want 40", idx.Load(), len(p.samples))
	}
}

// TestNoNewConnectionsAfterWarmup: the pool dials at most once per
// connection and reuses its connections for every later request.
func TestNoNewConnectionsAfterWarmup(t *testing.T) {
	g := newLoadgen(stub(t, time.Millisecond, http.StatusOK, "{}").URL, 2)
	defer g.close()
	var idx atomic.Int64
	g.closedLoop(50*time.Millisecond, okSource, &idx)
	warm := g.dials.Load()
	if warm < 1 || warm > 2 {
		t.Fatalf("warm-up dialed %d connections, want 1-2", warm)
	}
	g.openLoop(300, 100*time.Millisecond, okSource, &idx)
	g.closedLoop(50*time.Millisecond, okSource, &idx)
	if d := g.dials.Load() - warm; d != 0 {
		t.Fatalf("%d new connections after warm-up", d)
	}
}

func TestFailureClassification(t *testing.T) {
	var idx atomic.Int64
	wrong := func(int64) *request {
		return &request{path: "/v1/run", body: []byte("{}"), check: func([]byte) error { return errors.New("messages != n-1") }}
	}
	g := newLoadgen(stub(t, 0, http.StatusOK, "{}").URL, 1)
	defer g.close()
	p := g.closedLoop(20*time.Millisecond, wrong, &idx)
	if p.cnt.attempted == 0 || p.cnt.failed != p.cnt.attempted || p.cnt.wrong != p.cnt.attempted {
		t.Fatalf("wrong bodies: %+v, want every attempt failed and wrong", p.cnt)
	}

	g503 := newLoadgen(stub(t, 0, http.StatusServiceUnavailable, "busy").URL, 1)
	defer g503.close()
	p = g503.closedLoop(20*time.Millisecond, okSource, &idx)
	if p.cnt.attempted == 0 || p.cnt.failed != p.cnt.attempted || p.cnt.wrong != 0 {
		t.Fatalf("503s: %+v, want every attempt failed, none wrong", p.cnt)
	}
	lat, failed, _ := p.latencies()
	if len(lat) != 0 || failed != len(p.samples) {
		t.Fatalf("503s produced %d latencies, %d failures", len(lat), failed)
	}
}
