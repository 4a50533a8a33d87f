package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries a trace ID from the benchmark's client side (the
// coordinator's transport) to its server side (the worker handler wrapper).
const traceHeader = "X-Perfbench-Trace"

// span is one timed call at a layer boundary. Spans of one request or
// shard share Trace; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span or trace ID (never 0).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span and returns its ID. A zero id allocates one.
func (t *tracer) add(name string, trace, id, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfStat is the self time of all spans of one name.
type selfStat struct {
	Count int
	Self  time.Duration // summed self time
	Total time.Duration // summed duration
}

func (s selfStat) meanSelfMS() float64 {
	if s.Count == 0 {
		return 0
	}
	return ms(s.Self) / float64(s.Count)
}

// selfTimes computes, per span name, the summed self time: each span's
// duration minus the part of its interval covered by the union of its
// children (clipped to the span).
func selfTimes(spans []span) map[string]selfStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanNames are the span names the benchmark records, each reported as a
// per-layer self-time metric (0 where a workload records none).
var spanNames = []string{
	// serve workloads, client side (one chain per request)
	"client.request", "loadgen.wait", "http.write", "server.wait", "http.read",
	// core replay of a workload's request tuples
	"replay.request", "tenant.auth", "tenant.allow", "graphgen.generate",
	"oracle.advise", "sim.run", "catalog.check", "campaign.run_shard",
	// sweep-fleet
	"sweep.run", "cluster.dispatch", "service.shard", "warehouse.deposit", "warehouse.close",
}

// spanMetrics adds span.<name>.self_ms (mean self time per span) for every
// known span name.
func spanMetrics(m metricSet, st map[string]selfStat) {
	for _, name := range spanNames {
		m.set(fmt.Sprintf("span.%s.self_ms", name), st[name].meanSelfMS(), "ms")
	}
}
