package main

import (
	"math"
	"sort"
	"time"
)

// failLatency is the latency a failed or refused request is ranked at: it
// is beyond any latency limit, so a failure always counts as a miss, and it
// is finite, so a percentile that lands on a failure still prints.
const failLatency = 60 * time.Second

// dist summarizes one latency sample. Failures are ranked at failLatency.
type dist struct {
	N      int     // samples, failures included
	Failed int     // samples that were failures
	P50    float64 // ms
	P99    float64 // ms
	// Beyond99 is how many samples rank above the p99 sample; the p99 is
	// only supported when it is at least 10.
	Beyond99 int
}

// percentileIndex is the nearest-rank index of percentile p in a sorted
// sample of n values.
func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// summarize ranks latencies (successes) together with failed failures.
func summarize(lat []time.Duration, failed int) dist {
	n := len(lat) + failed
	d := dist{N: n, Failed: failed}
	if n == 0 {
		return d
	}
	all := make([]time.Duration, 0, n)
	all = append(all, lat...)
	for i := 0; i < failed; i++ {
		all = append(all, failLatency)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	d.P50 = ms(all[percentileIndex(n, 50)])
	i99 := percentileIndex(n, 99)
	d.P99 = ms(all[i99])
	d.Beyond99 = n - 1 - i99
	return d
}

// sloMisses counts samples over limit plus failures.
func sloMisses(lat []time.Duration, failed int, limit time.Duration) int {
	miss := failed
	for _, l := range lat {
		if l > limit {
			miss++
		}
	}
	return miss
}

// median of xs (the mean of the two middle values for even counts); 0 for
// an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns percentile p of xs (nearest rank); 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileIndex(len(s), p)]
}

// quantileMS returns percentile p of durations in milliseconds.
func quantileMS(xs []time.Duration, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(s[percentileIndex(len(s), p)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counter tallies attempted and failed operations for the result line.
type counter struct {
	attempted, failed int64
	wrong             int64 // failures whose output was wrong (not transport or status)
	firstWrong        string
}

func (c *counter) add(o counter) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.wrong += o.wrong
	if c.firstWrong == "" {
		c.firstWrong = o.firstWrong
	}
}
