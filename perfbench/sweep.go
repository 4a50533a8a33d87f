package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/cluster"
	"oraclesize/internal/service"
	"oraclesize/internal/warehouse"
)

// sweepWorkers is the fleet size: oracled workers on loopback listeners.
const sweepWorkers = 2

// sweepCompactAt is the warehouse WAL size that triggers compaction,
// small enough that every sweep compacts at least once.
const sweepCompactAt = 256 << 10

// sweepSpec is the fixed campaign: 5 families × 4 sizes × {wakeup,
// broadcast} × {paper scheme, flooding} × 50 trials = 4,000 units.
func sweepSpec(seed int64) *campaign.Spec {
	return &campaign.Spec{
		Name:     "perfbench-sweep",
		Seed:     seed,
		Trials:   50,
		Families: []string{"path", "grid", "random-sparse", "binary-tree", "hypercube"},
		Sizes:    []int{16, 32, 64, 128},
		Tasks: []campaign.TaskSpec{
			{Task: "wakeup", Schemes: []string{"tree", "flooding"}},
			{Task: "broadcast", Schemes: []string{"light-tree", "flooding"}},
		},
	}
}

// dispatch is one coordinator → worker /v1/shard round trip.
type dispatch struct {
	id         uint64
	start, end time.Time
	bytes      int64
	ok         bool
}

// timingRT is the coordinator's transport: it stamps each shard dispatch
// with an ID (carried to the worker in traceHeader) and times it until the
// response body is consumed.
type timingRT struct {
	base *http.Transport
	ids  *atomic.Uint64
	mu   sync.Mutex
	recs []dispatch
}

func (rt *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/shard" {
		return rt.base.RoundTrip(req)
	}
	id := rt.ids.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.finish(dispatch{id: id, start: start, end: time.Now()})
		return nil, err
	}
	ok := resp.StatusCode == http.StatusOK
	resp.Body = &timedBody{rc: resp.Body, done: func(n int64, readErr error) {
		rt.finish(dispatch{id: id, start: start, end: time.Now(), bytes: n, ok: ok && readErr == nil})
	}}
	return resp, nil
}

func (rt *timingRT) finish(d dispatch) {
	rt.mu.Lock()
	rt.recs = append(rt.recs, d)
	rt.mu.Unlock()
}

// timedBody reports the byte count once, at EOF, error or Close.
type timedBody struct {
	rc   io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64, err error)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n, nil) })
	} else if err != nil {
		b.once.Do(func() { b.done(b.n, err) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n, io.ErrUnexpectedEOF) })
	return b.rc.Close()
}

// handled is one worker handler call.
type handled struct {
	worker     int
	start, end time.Time
}

// handlerTimes records each worker's handler interval per dispatch ID.
type handlerTimes struct {
	mu   sync.Mutex
	recs map[uint64]handled
}

func (h *handlerTimes) wrap(worker int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		if id != 0 {
			end := time.Now()
			h.mu.Lock()
			h.recs[id] = handled{worker, start, end}
			h.mu.Unlock()
		}
	})
}

// timedStore times every deposit into the warehouse.
type timedStore struct {
	*warehouse.Warehouse
	tr            *tracer
	trace, parent uint64
	mu            sync.Mutex
	deposits      []time.Duration
}

func (s *timedStore) Deposit(index int, recs []campaign.Record) error {
	start := time.Now()
	err := s.Warehouse.Deposit(index, recs)
	end := time.Now()
	s.mu.Lock()
	s.deposits = append(s.deposits, end.Sub(start))
	s.mu.Unlock()
	s.tr.add("warehouse.deposit", s.trace, 0, s.parent, start, end)
	return err
}

// fleet is one coordinator over sweepWorkers in-process oracled workers.
type fleet struct {
	svcs    []*service.Server
	servers []*http.Server
	urls    []string
	coord   *cluster.Coordinator
	rt      *timingRT
	hts     *handlerTimes
	wh      *warehouse.Warehouse
}

func startFleet(spec *campaign.Spec, dir string, ids *atomic.Uint64) (*fleet, error) {
	f := &fleet{hts: &handlerTimes{recs: map[uint64]handled{}}}
	for i := 0; i < sweepWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		svc := service.New(service.Config{ArtifactDir: dir})
		hs := &http.Server{Handler: f.hts.wrap(i, svc.Handler()), ReadHeaderTimeout: 5 * time.Second}
		go hs.Serve(ln)
		f.svcs = append(f.svcs, svc)
		f.servers = append(f.servers, hs)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	wh, err := warehouse.Open(filepath.Join(dir, "warehouse"),
		warehouse.Options{SpecHash: spec.Hash(), CompactAt: sweepCompactAt})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.wh = wh
	f.rt = &timingRT{base: &http.Transport{MaxIdleConnsPerHost: 8}, ids: ids}
	f.coord, err = cluster.New(cluster.Config{Workers: f.urls, Client: &http.Client{Transport: f.rt}})
	if err == nil {
		err = f.coord.Probe(context.Background())
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop shuts the listeners and workers down; it is safe on a partial fleet.
func (f *fleet) stop() {
	for _, hs := range f.servers {
		hs.Close()
	}
	for _, s := range f.svcs {
		s.Stop()
	}
	if f.rt != nil {
		f.rt.base.CloseIdleConnections()
	}
	if f.wh != nil {
		f.wh.Close()
	}
}

// scrapeWorkers sums the workers' /metrics.
func (f *fleet) scrapeWorkers() ([]prom, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	var out []prom
	for _, u := range f.urls {
		p, err := scrape(c, u)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// sweep is the outcome of one campaign through the fleet.
type sweep struct {
	units       int
	setup       time.Duration
	makespan    time.Duration
	closeTime   time.Duration
	stats       cluster.Stats
	dispatches  []dispatch
	handlers    map[uint64]handled
	start       time.Time
	deposits    []time.Duration
	compactions int64
	bytes       int64
	records     int
	allocBytes  uint64
	peakRSS     float64 // MiB, this process during the sweep
	svc         serviceDelta
	cnt         counter
}

// heapAllocs is the cumulative heap allocation of this process in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runSweepOnce sets up a fresh fleet, runs spec through it into a fresh
// warehouse, and checks the merged result against want (the canonical
// local run).
func runSweepOnce(spec *campaign.Spec, dir string, want []byte, ids *atomic.Uint64, tr *tracer) (sweep, error) {
	var sw sweep
	if err := os.RemoveAll(dir); err != nil {
		return sw, err
	}
	t0 := time.Now()
	f, err := startFleet(spec, dir, ids)
	if err != nil {
		return sw, err
	}
	sw.setup = time.Since(t0)
	before, err := f.scrapeWorkers()
	if err != nil {
		f.stop()
		return sw, err
	}
	trace, root := tr.newID(), tr.newID()
	store := &timedStore{Warehouse: f.wh, tr: tr, trace: trace, parent: root}
	alloc0 := heapAllocs()
	rss := sampleRSS(5 * time.Millisecond)
	start := time.Now()
	sw.stats, err = f.coord.Run(context.Background(), spec, store, nil)
	closeStart := time.Now()
	sw.compactions = f.wh.Stats().Compactions
	if cerr := f.wh.Close(); err == nil {
		err = cerr
	}
	end := time.Now()
	sw.peakRSS = rss.finish()
	sw.allocBytes = heapAllocs() - alloc0
	sw.start, sw.makespan, sw.closeTime = start, end.Sub(start), end.Sub(closeStart)
	if s := f.wh.Stats(); s.Compactions > sw.compactions {
		sw.compactions = s.Compactions
	}
	after, serr := f.scrapeWorkers()
	f.stop()
	if err != nil {
		return sw, fmt.Errorf("sweep: %w", err)
	}
	if serr != nil {
		return sw, serr
	}
	for i := range before {
		sw.svc.add(serviceDeltaOf(before[i], after[i], "/v1/shard"))
	}
	sw.units = sw.stats.Units
	f.rt.mu.Lock()
	sw.dispatches = append([]dispatch(nil), f.rt.recs...)
	f.rt.mu.Unlock()
	f.hts.mu.Lock()
	sw.handlers = maps.Clone(f.hts.recs)
	f.hts.mu.Unlock()
	store.mu.Lock()
	sw.deposits = append([]time.Duration(nil), store.deposits...)
	store.mu.Unlock()
	for _, d := range sw.dispatches {
		sw.cnt.attempted++
		if !d.ok {
			sw.cnt.failed++
		}
	}
	if tr != nil {
		tr.add("sweep.run", trace, root, 0, start, end)
		tr.add("warehouse.close", trace, 0, root, closeStart, end)
		for _, d := range sw.dispatches {
			shard := tr.newID()
			id := tr.add("cluster.dispatch", shard, 0, root, d.start, d.end)
			if h, ok := sw.handlers[d.id]; ok {
				tr.add("service.shard", shard, 0, id, h.start, h.end)
			}
		}
	}
	sw.cnt.attempted++
	if err := verifySweep(filepath.Join(dir, "warehouse"), spec, want, &sw); err != nil {
		sw.cnt.failed++
		sw.cnt.wrong++
		sw.cnt.firstWrong = err.Error()
	}
	return sw, os.RemoveAll(dir)
}

// verifySweep reopens the closed warehouse, validates every record and
// compares its export byte for byte with the local run.
func verifySweep(dir string, spec *campaign.Spec, want []byte, sw *sweep) error {
	sw.bytes = dirBytes(dir)
	wh, err := warehouse.Open(dir, warehouse.Options{SpecHash: spec.Hash()})
	if err != nil {
		return err
	}
	defer wh.Close()
	recs, err := wh.Records()
	if err != nil {
		return err
	}
	sw.records = len(recs)
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("record %s: %v", r.Unit, err)
		}
	}
	var got bytes.Buffer
	if err := wh.Export(&got); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("warehouse export (%d bytes) differs from the canonical local run (%d bytes)", got.Len(), len(want))
	}
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// localCanon runs spec in process and returns its canonical encoding.
func localCanon(spec *campaign.Spec) ([]byte, error) {
	var raw bytes.Buffer
	if _, err := campaign.Run(spec, campaign.NewSink(&raw), campaign.RunOptions{}); err != nil {
		return nil, err
	}
	recs, err := campaign.DecodeRecords(&raw)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := campaign.EncodeRecords(&out, campaign.Canonicalize(recs)); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// rssSampler tracks this process's peak resident set while running.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.peak = max(s.peak, rssMB(os.Getpid(), "VmRSS"))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// sweepRefChunk is the reference closed loop measured after each sweep,
// over one connection per CPU as the coordinator dispatches.
const sweepRefChunk = 300 * time.Millisecond

// runSweep runs sweep-fleet: the same campaign through a fresh fleet and
// warehouse, again and again, for the run's time.
func runSweep(o options) (*outcome, error) {
	out := &outcome{e2e: metricSet{}, layers: metricSet{}, report: metricSet{},
		host: newHost("sweep-fleet", o.seed, o.seconds, o.trace)}
	out.host.GOMAXPROCS["oracled"] = runtime.GOMAXPROCS(0) // in-process workers
	spec := sweepSpec(o.seed)
	want, err := localCanon(spec)
	if err != nil {
		return nil, fmt.Errorf("local reference run: %w", err)
	}
	runtime.GC()
	dir := filepath.Join(o.workdir, fmt.Sprintf("sweep-%d", os.Getpid()))
	var ids atomic.Uint64
	total := time.Duration(o.seconds) * time.Second

	sweeps := func(budget time.Duration, tr *tracer) ([]sweep, error) {
		var all []sweep
		deadline := time.Now().Add(budget)
		for len(all) == 0 || time.Now().Before(deadline) {
			sw, err := runSweepOnce(spec, dir, want, &ids, tr)
			if err != nil {
				return nil, err
			}
			out.cnt.add(sw.cnt)
			all = append(all, sw)
		}
		return all, nil
	}

	if !o.trace {
		procs := runtime.GOMAXPROCS(0)
		ref, err := launchReference(pinning{serverProcs: procs}, filepath.Join(o.workdir, "reference.log"))
		if err != nil {
			return nil, err
		}
		defer ref.stop()
		rg := newLoadgen(ref.base, procs)
		defer rg.close()
		var refIdx atomic.Int64
		refSrc := referenceSource("/work", func(i int64) *request {
			return &request{body: []byte(fmt.Sprintf(`{"seed":%d,"i":%d}`, o.seed, i))}
		})
		rg.closedLoop(sweepRefChunk, refSrc, &refIdx) // warm-up
		// Each sweep is followed by a reference chunk; the gated figures
		// are per-sweep ratios to it (see reference.go), medians over the
		// run's sweeps.
		var refs []phase
		var refAll phase
		var all []sweep
		deadline := time.Now().Add(total)
		for len(all) == 0 || time.Now().Before(deadline) {
			sw, err := runSweepOnce(spec, dir, want, &ids, nil)
			if err != nil {
				return nil, err
			}
			out.cnt.add(sw.cnt)
			all = append(all, sw)
			rp := rg.closedLoop(sweepRefChunk, refSrc, &refIdx)
			out.cnt.add(rp.cnt)
			refs = append(refs, rp)
			refAll.merge(rp)
		}
		var ups, setups, p50s, peaks, relUPS, relP50 []float64
		var rtts []time.Duration
		for i, sw := range all {
			ups = append(ups, float64(sw.units)/sw.makespan.Seconds())
			setups = append(setups, sw.setup.Seconds())
			peaks = append(peaks, sw.peakRSS)
			var own []time.Duration
			for _, d := range sw.dispatches {
				own = append(own, d.end.Sub(d.start))
			}
			p50s = append(p50s, quantileMS(own, 50))
			rtts = append(rtts, own...)
			relUPS = append(relUPS, ratio(ups[i], refs[i].rate()))
			relP50 = append(relP50, ratio(p50s[i], refs[i].p50()))
		}
		rtt := summarize(rtts, 0)
		R := out.report
		R.set("units_per_s", median(ups), "units/s")
		R.set("sweeps", float64(len(all)), "count")
		R.set("units_per_sweep", float64(all[0].units), "units")
		R.set("shard_rtt.p50_ms", rtt.P50, "ms")
		R.set("shard_rtt.p99_ms", rtt.P99, "ms")
		R.set("shard_rtt.samples", float64(rtt.N), "count")
		R.set("shard_rtt.beyond_p99", float64(rtt.Beyond99), "count")
		R.set("reference.throughput_rps", refAll.rate(), "req/s")
		R.set("reference.p50_ms", refAll.p50(), "ms")
		R.set("fail_ratio", ratio(float64(out.cnt.failed), float64(out.cnt.attempted)), "ratio")
		R.set("setup_s", median(setups), "s")
		R.set("peak_rss_mb.max", quantile(peaks, 100), "MiB")
		out.e2e.set("throughput_vs_ref", median(relUPS), "ratio")
		out.e2e.set("latency_p50_vs_ref", median(relP50), "ratio")
		out.e2e.set("setup_s", median(setups), "s")
		out.e2e.set("peak_rss_mb", median(peaks), "MiB")
		return out, nil
	}

	p := split(total, 3, 3, 2)
	plain, err := sweeps(p[0], nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := sweeps(p[1], tr)
	if err != nil {
		return nil, err
	}
	sweepLayers(out.layers, traced, plain)
	rep := replaySweep(spec, traced[0].stats.ShardSizeMedian, p[2], tr)
	if rep.err != nil {
		return nil, rep.err
	}
	rep.metrics(out.layers)
	st := selfTimes(tr.snapshot())
	spanMetrics(out.layers, st)
	out.layers.set("trace.unattributed_ms", st["sweep.run"].meanSelfMS(), "ms")
	out.layers.set("trace.client_ms_mean", ratio(ms(st["sweep.run"].Total), float64(st["sweep.run"].Count)), "ms")
	fillLayers(out.layers)
	out.spans = tr
	return out, nil
}

// sweepLayers derives the cluster, warehouse and service metrics from the
// traced sweeps, and the tracing overhead from the untraced ones.
func sweepLayers(L metricSet, traced, plain []sweep) {
	var (
		rtts, deposits              []time.Duration
		overhead, busy, makespans   time.Duration
		matched, dispatches, shards int
		units, records              int
		compactions, bytes          int64
		allocs                      uint64
		closeMS, shardUnits         []float64
		svc                         serviceDelta
		respBytes                   int64
	)
	for _, sw := range traced {
		for _, d := range sw.dispatches {
			rtt := d.end.Sub(d.start)
			rtts = append(rtts, rtt)
			respBytes += d.bytes
			if h, ok := sw.handlers[d.id]; ok {
				overhead += rtt - h.end.Sub(h.start)
				matched++
			}
		}
		// A worker is busy while at least one of its handlers runs.
		per := make([][]span, sweepWorkers)
		for _, h := range sw.handlers {
			per[h.worker] = append(per[h.worker], span{Start: h.start.Sub(sw.start).Nanoseconds(), End: h.end.Sub(sw.start).Nanoseconds()})
		}
		for _, hs := range per {
			busy += covered(span{End: sw.makespan.Nanoseconds()}, hs)
		}
		dispatches += len(sw.dispatches)
		shards += sw.stats.Shards
		shardUnits = append(shardUnits, float64(sw.stats.ShardSizeMedian))
		makespans += sw.makespan
		deposits = append(deposits, sw.deposits...)
		compactions += sw.compactions
		bytes += sw.bytes
		records += sw.records
		units += sw.units
		allocs += sw.allocBytes
		closeMS = append(closeMS, ms(sw.closeTime))
		svc.add(sw.svc)
	}
	n := float64(len(traced))
	L.set("cluster.shards", float64(shards)/n, "count")
	L.set("cluster.shard_units_median", median(shardUnits), "units")
	L.set("cluster.dispatch_rtt_ms_p50", quantileMS(rtts, 50), "ms")
	L.set("cluster.dispatch_rtt_ms_p99", quantileMS(rtts, 99), "ms")
	L.set("cluster.overhead_ms_per_shard", ratio(ms(overhead), float64(matched)), "ms")
	L.set("cluster.worker_busy_ratio", ratio(busy.Seconds(), makespans.Seconds()*sweepWorkers), "ratio")
	L.set("cluster.useful_dispatch_ratio", ratio(float64(shards), float64(dispatches)), "ratio")
	L.set("warehouse.deposit_us_p50", 1000*quantileMS(deposits, 50), "us")
	L.set("warehouse.deposit_us_p99", 1000*quantileMS(deposits, 99), "us")
	L.set("warehouse.compactions", float64(compactions)/n, "count")
	L.set("warehouse.bytes_per_record", ratio(float64(bytes), float64(records)), "bytes")
	L.set("warehouse.close_ms", median(closeMS), "ms")
	L.set("runtime.alloc_bytes_per_unit", ratio(float64(allocs), float64(units)), "bytes")
	svc.metrics(L)
	L.set("service.response_bytes_mean", ratio(float64(respBytes), float64(dispatches)), "bytes")
	L.set("service.wire_ms_mean", ratio(ms(overhead), float64(matched)), "ms")
	var tu, pu, tm, pm []float64
	for _, sw := range traced {
		tu = append(tu, float64(sw.units)/sw.makespan.Seconds())
		tm = append(tm, ms(sw.makespan))
	}
	for _, sw := range plain {
		pu = append(pu, float64(sw.units)/sw.makespan.Seconds())
		pm = append(pm, ms(sw.makespan))
	}
	L.set("trace.overhead_rps", median(pu)-median(tu), "1/s")
	L.set("trace.overhead_p50_ms", median(tm)-median(pm), "ms")
}

// replaySweep runs the spec's units through campaign.RunShard in shards of
// the fleet's median size, then a sample of units through the core layers
// one call at a time, for budget.
func replaySweep(spec *campaign.Spec, shardSize int, budget time.Duration, tr *tracer) replayStats {
	var st replayStats
	units := spec.Units()
	if shardSize < 1 {
		shardSize = 1
	}
	cache := campaign.NewCache(128)
	var shardTime time.Duration
	unitsRun := 0
	deadline := time.Now().Add(budget / 2)
	for _, sh := range campaign.Shards(len(units), shardSize) {
		if time.Now().After(deadline) && unitsRun > 0 {
			break
		}
		trace := tr.newID()
		var err error
		call(tr, "campaign.run_shard", trace, 0, &shardTime, func() { _, err = campaign.RunShard(spec, units, sh, cache) })
		if err != nil {
			st.err = err
			return st
		}
		unitsRun += sh.Len()
	}
	cache = campaign.NewCache(128)
	deadline = time.Now().Add(budget / 2)
	for i := 0; i < len(units) && (i == 0 || time.Now().Before(deadline)); i++ {
		u := units[i]
		trace, root := tr.newID(), tr.newID()
		start := time.Now()
		if err := replayCore(tr, trace, root, &st, u.Family, u.N, u.InstanceSeed, u.Task, u.Scheme, true, cache); err != nil {
			st.err = fmt.Errorf("replaying %s: %w", u.Key(), err)
			return st
		}
		tr.add("replay.request", trace, root, 0, start, time.Now())
		st.requests++
	}
	st.unitMS = ratio(ms(shardTime), float64(unitsRun))
	return st
}
