package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// prom is one scrape of a Prometheus text exposition: series text (name
// plus label set, as printed) to value.
type prom map[string]float64

// parseProm reads the text format. Comment and blank lines are skipped;
// a sample line is `<series> <value>`.
func parseProm(r io.Reader) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds every series of metric name whose label set contains each of
// the given `key="value"` pairs.
func (p prom) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range p {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// delta is after minus before for one summed series selection.
func delta(before, after prom, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// scrape fetches and parses base/metrics.
func scrape(c *http.Client, base string) (prom, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// serviceDelta is the oracled counters moved between two scrapes.
type serviceDelta struct {
	requests      float64 // finished requests on the measured endpoints
	handlerSec    float64 // handler time on those endpoints
	queueSec      float64 // queue wait charged to tenants
	jobs, batches float64 // dispatch jobs and batches
	respHits      float64
	respMisses    float64
	instHits      float64
	instMisses    float64
	poolRuns      float64
	poolCreated   float64
	shed          float64
	throttled     float64
}

// serviceDeltaOf extracts the counters the per-layer metrics need, for
// requests to the given endpoints.
func serviceDeltaOf(before, after prom, endpoints ...string) serviceDelta {
	var d serviceDelta
	for _, ep := range endpoints {
		l := `endpoint="` + ep + `"`
		d.requests += delta(before, after, "oracled_request_duration_seconds_count", l)
		d.handlerSec += delta(before, after, "oracled_request_duration_seconds_sum", l)
	}
	d.queueSec = delta(before, after, "oracled_tenant_usage_queue_seconds_total")
	d.jobs = delta(before, after, "oracled_dispatch_jobs_total")
	d.batches = delta(before, after, "oracled_dispatch_batches_total")
	d.respHits = delta(before, after, "oracled_response_cache_hits_total")
	d.respMisses = delta(before, after, "oracled_response_cache_misses_total")
	d.instHits = delta(before, after, "oracled_instance_cache_hits_total")
	d.instMisses = delta(before, after, "oracled_instance_cache_misses_total")
	d.poolRuns = delta(before, after, "oracled_engine_pool_runs_total")
	d.poolCreated = delta(before, after, "oracled_engine_pool_created_total")
	d.shed = delta(before, after, "oracled_shed_total")
	d.throttled = delta(before, after, "oracled_throttled_total")
	return d
}

func (d *serviceDelta) add(o serviceDelta) {
	d.requests += o.requests
	d.handlerSec += o.handlerSec
	d.queueSec += o.queueSec
	d.jobs += o.jobs
	d.batches += o.batches
	d.respHits += o.respHits
	d.respMisses += o.respMisses
	d.instHits += o.instHits
	d.instMisses += o.instMisses
	d.poolRuns += o.poolRuns
	d.poolCreated += o.poolCreated
	d.shed += o.shed
	d.throttled += o.throttled
}

// metrics renders the service-layer per-layer metrics.
func (d serviceDelta) metrics(m metricSet) {
	m.set("service.handler_ms_mean", 1000*ratio(d.handlerSec, d.requests), "ms")
	m.set("service.queue_wait_ms_mean", 1000*ratio(d.queueSec, d.jobs), "ms")
	m.set("service.batch_size_mean", ratio(d.jobs, d.batches), "jobs")
	m.set("service.respcache_hit_ratio", ratio(d.respHits, d.respHits+d.respMisses), "ratio")
	m.set("service.instance_cache_hit_ratio", ratio(d.instHits, d.instHits+d.instMisses), "ratio")
	poolHit := 0.0
	if d.poolRuns > 0 {
		poolHit = 1 - d.poolCreated/d.poolRuns
	}
	m.set("service.engine_pool_hit_ratio", poolHit, "ratio")
	m.set("service.shed_total", d.shed, "count")
	m.set("tenant.throttled_total", d.throttled, "count")
}
