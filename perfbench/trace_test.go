package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		// Overlapping children cover [10,40) and [50,60): 40 units.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "a", ID: 3, Parent: 1, Start: 20, End: 40},
		{Name: "b", ID: 4, Parent: 1, Start: 50, End: 60},
		// A child running past its parent is clipped to the parent.
		{Name: "b", ID: 5, Parent: 1, Start: 95, End: 120},
		// A grandchild only reduces its own parent's self time.
		{Name: "c", ID: 6, Parent: 4, Start: 52, End: 55},
	}
	st := selfTimes(spans)
	if got := st["root"].Self; got != 100-40-5 {
		t.Fatalf("root self = %d, want 55", got)
	}
	if got := st["a"].Self; got != 40 {
		t.Fatalf("a self = %d, want 20+20", got)
	}
	if got := st["b"]; got.Self != 10-3+25 || got.Count != 2 {
		t.Fatalf("b = %+v, want self 32 over 2 spans", got)
	}
	if got := st["c"].Self; got != 3 {
		t.Fatalf("c self = %d, want 3", got)
	}
}

func TestClientChainPartitionsRequest(t *testing.T) {
	tr := newTracer()
	g := &loadgen{tr: tr}
	due := time.Now()
	at := func(us int) time.Time { return due.Add(time.Duration(us) * time.Microsecond) }
	g.record(due, at(10), at(30), at(230), at(250))
	st := selfTimes(tr.snapshot())
	if st["client.request"].Self != 0 {
		t.Fatalf("client.request self = %v, want 0: the chain covers it", st["client.request"].Self)
	}
	var sum time.Duration
	for _, n := range []string{"loadgen.wait", "http.write", "server.wait", "http.read"} {
		sum += st[n].Self
	}
	if sum != st["client.request"].Total {
		t.Fatalf("chain self times sum to %v, request took %v", sum, st["client.request"].Total)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", 1, 0, 0, time.Now(), time.Now()); id != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestTracerWrite(t *testing.T) {
	tr := newTracer()
	tr.add("x", tr.newID(), 0, 0, time.Now(), time.Now())
	if err := tr.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
