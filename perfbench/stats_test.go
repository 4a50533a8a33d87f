package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	lat := make([]time.Duration, 200)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond // 1..200 ms
	}
	d := summarize(lat, 0)
	if d.N != 200 || d.P50 != 100 || d.P99 != 198 {
		t.Fatalf("summarize = %+v, want n=200 p50=100 p99=198", d)
	}
	if d.Beyond99 != 2 {
		t.Fatalf("beyond p99 = %d, want 2", d.Beyond99)
	}
}

func TestFailuresRankAsMisses(t *testing.T) {
	lat := make([]time.Duration, 98)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	// Two failures in 100 samples: the p99 sample is a failure.
	d := summarize(lat, 2)
	if d.N != 100 || d.Failed != 2 {
		t.Fatalf("summarize = %+v, want 100 samples, 2 failed", d)
	}
	if d.P99 != ms(failLatency) {
		t.Fatalf("p99 = %v ms, want the failure latency %v", d.P99, ms(failLatency))
	}
	if got := sloMisses(append(lat, 10*time.Millisecond), 2, 5*time.Millisecond); got != 3 {
		t.Fatalf("slo misses = %d, want 2 failures + 1 slow", got)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if d := summarize(nil, 0); d.N != 0 || d.P99 != 0 {
		t.Fatalf("empty summarize = %+v", d)
	}
	d := summarize([]time.Duration{3 * time.Millisecond}, 0)
	if d.P50 != 3 || d.P99 != 3 || d.Beyond99 != 0 {
		t.Fatalf("single summarize = %+v", d)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if q := quantileMS([]time.Duration{4 * time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}, 50); q != 2 {
		t.Fatalf("p50 = %v, want 2", q)
	}
}

func TestCounterAdd(t *testing.T) {
	var c counter
	c.add(counter{attempted: 3, failed: 1})
	c.add(counter{attempted: 2, failed: 1, wrong: 1, firstWrong: "bad"})
	c.add(counter{attempted: 1, failed: 1, wrong: 1, firstWrong: "later"})
	if c.attempted != 6 || c.failed != 3 || c.wrong != 2 || c.firstWrong != "bad" {
		t.Fatalf("counter = %+v", c)
	}
}

func TestRateCountsOnlyCorrectCompletions(t *testing.T) {
	p := phase{dur: 2 * time.Second}
	for i := 0; i < 30; i++ {
		p.samples = append(p.samples, sample{ok: i%3 != 0})
	}
	if got := p.rate(); got != 10 {
		t.Fatalf("rate = %v, want 20 correct over 2s = 10", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{8, 1, 7, 2, 6, 3, 5, 4}
	if q := quantile(xs, 75); q != 6 {
		t.Fatalf("p75 = %v, want 6", q)
	}
	if q := quantile(xs, 25); q != 2 {
		t.Fatalf("p25 = %v, want 2", q)
	}
	if q := quantile(nil, 50); q != 0 {
		t.Fatalf("empty = %v", q)
	}
}
