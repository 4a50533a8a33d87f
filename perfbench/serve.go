package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"oraclesize/internal/tenant"
)

// serveWorkload describes one oracled traffic mix.
type serveWorkload struct {
	name string
	// lowRate and highRate are the open-loop rates (req/s), fixed from the
	// measured closed-loop saturation of the seed tree on a 2-CPU host:
	// low is light load, high is well below saturation.
	lowRate, highRate float64
	// limit is the latency limit an open-loop request must meet.
	limit time.Duration
	// tuples builds the run's request source from the seed and tenants.
	tuples func(seed int64, tenants []tenant.Spec) (*tupleSource, error)
	// refPath is the reference server endpoint the workload is divided
	// by: /echo when the front end dominates, /work when computing does.
	refPath string
}

var (
	hotWorkload = serveWorkload{
		name: "serve-hot", lowRate: 2000, highRate: 8000, limit: 5 * time.Millisecond,
		tuples: hotTuples, refPath: "/echo",
	}
	coldWorkload = serveWorkload{
		name: "serve-cold", lowRate: 150, highRate: 550, limit: 50 * time.Millisecond,
		tuples: coldTuples, refPath: "/work",
	}
)

// benchTenants is the generated keyfile: a few weighted tenants whose
// quotas never throttle.
func benchTenants(seed int64) []tenant.Spec {
	specs := make([]tenant.Spec, 4)
	for i := range specs {
		specs[i] = tenant.Spec{
			Name:   fmt.Sprintf("bench%d", i),
			Key:    fmt.Sprintf("perfbench-%d-key-%d", seed, i),
			Weight: i + 1,
		}
	}
	return specs
}

func writeKeyfile(path string, specs []tenant.Spec) error {
	data, err := json.Marshal(map[string]any{"tenants": specs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}

// daemon is one running server process: oracled or the reference server.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// pinning decides CPU placement: with at least two CPUs and taskset
// available, oracled gets the first half and the generator the rest.
type pinning struct {
	server, client string // taskset CPU lists; empty when not pinned
	serverProcs    int
}

func choosePinning() pinning {
	n := runtime.NumCPU()
	if n < 2 {
		return pinning{serverProcs: n}
	}
	if _, err := exec.LookPath("taskset"); err != nil {
		return pinning{serverProcs: n}
	}
	half := n / 2
	return pinning{
		server:      cpuList(0, half),
		client:      cpuList(half, n),
		serverProcs: half,
	}
}

func cpuList(lo, hi int) string {
	if hi-lo == 1 {
		return strconv.Itoa(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi-1)
}

// pinSelf moves every thread of this process onto cpus and caps
// GOMAXPROCS to match.
func pinSelf(cpus string, procs int) error {
	if cpus == "" {
		return nil
	}
	if out, err := exec.Command("taskset", "-a", "-p", "-c", cpus, strconv.Itoa(os.Getpid())).CombinedOutput(); err != nil {
		return fmt.Errorf("taskset: %v: %s", err, out)
	}
	runtime.GOMAXPROCS(procs)
	return nil
}

// freeAddr reserves a loopback port for a child process.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// launch starts oracled and waits for /healthz; it returns the daemon and
// the time from launch to ready.
func launch(o options, pin pinning, keyfile, logPath string) (*daemon, time.Duration, error) {
	artifacts := filepath.Join(o.workdir, "artifacts")
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return nil, 0, err
	}
	return spawn(pin, logPath, func(addr string) []string {
		return []string{o.oracled, "-addr", addr, "-keyfile", keyfile, "-artifacts", artifacts}
	})
}

// launchReference starts the reference server (this binary with
// -reference) on the server CPUs of pin.
func launchReference(pin pinning, logPath string) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d, _, err := spawn(pin, logPath, func(addr string) []string {
		return []string{self, "-reference", addr}
	})
	return d, err
}

// spawn runs the command argv(addr) on a free loopback address, pinned to
// the server CPUs, and waits for its /healthz.
func spawn(pin pinning, logPath string, argv func(addr string) []string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := argv(addr)
	var cmd *exec.Cmd
	if pin.server != "" {
		cmd = exec.Command("taskset", append([]string{"-c", pin.server}, args...)...)
	} else {
		cmd = exec.Command(args[0], args[1:]...)
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pin.serverProcs))
	log, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd.Stdout, cmd.Stderr = log, log
	d := &daemon{cmd: cmd, base: "http://" + addr, log: log}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", filepath.Base(args[0]), err)
	}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("%s not ready after 20s (log %s)", filepath.Base(args[0]), logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("pid %d ignored SIGTERM: %v", d.pid(), <-done)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// runServe runs one serve workload end to end.
func runServe(o options, wl serveWorkload) (*outcome, error) {
	if o.oracled == "" {
		return nil, fmt.Errorf("-oracled is required")
	}
	pin := choosePinning()
	if err := pinSelf(pin.client, runtime.NumCPU()-pin.serverProcs); err != nil {
		return nil, err
	}
	out := &outcome{e2e: metricSet{}, layers: metricSet{}, report: metricSet{},
		host: newHost(wl.name, o.seed, o.seconds, o.trace)}
	out.host.GOMAXPROCS["perfbench"] = runtime.GOMAXPROCS(0)
	out.host.GOMAXPROCS["oracled"] = pin.serverProcs
	if pin.server != "" {
		out.host.CPUs["oracled"], out.host.CPUs["perfbench"] = pin.server, pin.client
	}

	tenants := benchTenants(o.seed)
	keyfile := filepath.Join(o.workdir, "tenants.json")
	if err := writeKeyfile(keyfile, tenants); err != nil {
		return nil, err
	}
	src, err := wl.tuples(o.seed, tenants)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(o.workdir, "oracled.log")

	// Set-up is launch to healthz. The serving daemon's launch is the first
	// sample; probe adds one more each time it starts and stops a spare
	// daemon, which the untraced run does between measuring rounds so the
	// samples spread over the run.
	d, ready, err := launch(o, pin, keyfile, logPath)
	if err != nil {
		return nil, err
	}
	setups := []float64{ready.Seconds()}
	probe := func() error {
		spare, ready, err := launch(o, pin, keyfile, logPath+".spare")
		if err != nil {
			return err
		}
		setups = append(setups, ready.Seconds())
		return spare.stop()
	}
	var ref *daemon
	if !o.trace {
		if ref, err = launchReference(pin, filepath.Join(o.workdir, "reference.log")); err != nil {
			d.stop()
			return nil, err
		}
	}
	err = measureServe(o, wl, d, ref, src, probe, out)
	out.e2e.set("peak_rss_mb", rssMB(d.pid(), "VmHWM"), "MiB")
	if serr := d.stop(); serr != nil && err == nil {
		err = fmt.Errorf("stopping oracled: %w", serr)
	}
	if ref != nil {
		if serr := ref.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping the reference server: %w", serr)
		}
	}
	if err != nil {
		return nil, err
	}
	out.e2e.set("setup_s", median(setups), "s")
	out.report.set("setup_s.samples", float64(len(setups)), "count")
	return out, nil
}

// serveRound is the length of one untraced measuring round: five chunks
// of equal length, namely oracled closed loop, reference closed loop,
// oracled at the low rate, the reference at the low rate and oracled at
// the high rate. Interleaving short chunks spreads every metric's samples
// over the whole run, and pairing each gated oracled chunk with a
// reference chunk of the same kind a fraction of a second later lets the
// gated ratios cancel the host's slow spells (see reference.go). The gated
// latency is the low rate's: the high rate nears saturation when the host
// is slow, and queueing there grows faster than either server slows.
const serveRound = time.Second

// measureServe drives the ready daemon, and in untraced runs the
// reference server, through the run's phases.
func measureServe(o options, wl serveWorkload, d, ref *daemon, src *tupleSource, probe func() error, out *outcome) error {
	conns := runtime.NumCPU()
	g := newLoadgen(d.base, conns)
	defer g.close()
	var idx atomic.Int64
	total := time.Duration(o.seconds) * time.Second

	if !o.trace {
		rg := newLoadgen(ref.base, conns)
		defer rg.close()
		refSrc := referenceSource(wl.refPath, src.next)
		warm := total / 10
		g.closedLoop(warm, src.next, &idx) // fills caches and pools
		rg.closedLoop(warm/4, refSrc, &idx)
		dialsWarm := g.dials.Load()
		rounds := max(1, int((total-warm)/serveRound))
		chunk := (total - warm) / time.Duration(5*rounds)
		var closed, low, high, refClosed, refLow phase
		var relRPS, relP50 []float64
		var cpu float64
		steal0 := stealSeconds()
		for r := 0; r < rounds; r++ {
			cpu0 := cpuSeconds(d.pid())
			c := g.closedLoop(chunk, src.next, &idx)
			cpu += cpuSeconds(d.pid()) - cpu0
			rc := rg.closedLoop(chunk, refSrc, &idx)
			relRPS = append(relRPS, ratio(c.rate(), rc.rate()))
			l := g.openLoop(wl.lowRate, chunk, src.next, &idx)
			rl := rg.openLoop(wl.lowRate, chunk, refSrc, &idx)
			relP50 = append(relP50, ratio(l.p50(), rl.p50()))
			h := g.openLoop(wl.highRate, chunk, src.next, &idx)
			closed.merge(c)
			refClosed.merge(rc)
			low.merge(l)
			refLow.merge(rl)
			high.merge(h)
			if err := probe(); err != nil {
				return err
			}
		}
		for _, ph := range []phase{closed, low, high, refClosed, refLow} {
			out.cnt.add(ph.cnt)
		}
		R := out.report
		R.set("throughput_rps", closed.rate(), "req/s")
		R.set("throughput_rps.conns", float64(conns), "count")
		R.set("server_cpu_ms_per_req", 1000*ratio(cpu, float64(closed.okCount())), "ms")
		R.set("host_steal_s", stealSeconds()-steal0, "s")
		R.set("reference.throughput_rps", refClosed.rate(), "req/s")
		R.set("reference.low.p50_ms", refLow.p50(), "ms")
		R.set("rounds", float64(rounds), "count")
		reportOpen(R, "low", wl.lowRate, low)
		reportOpen(R, "high", wl.highRate, high)
		lowLat, lowFail, _ := low.latencies()
		highLat, highFail, _ := high.latencies()
		miss := sloMisses(lowLat, lowFail, wl.limit) + sloMisses(highLat, highFail, wl.limit)
		R.set("slo_miss_ratio", ratio(float64(miss), float64(len(low.samples)+len(high.samples))), "ratio")
		R.set("slo_limit_ms", ms(wl.limit), "ms")
		R.set("fail_ratio", ratio(float64(out.cnt.failed), float64(out.cnt.attempted)), "ratio")
		R.set("loadgen.new_conns_after_warmup", float64(g.dials.Load()-dialsWarm), "count")
		out.e2e.set("throughput_vs_ref", median(relRPS), "ratio")
		out.e2e.set("latency_p50_vs_ref", median(relP50), "ratio")
		return nil
	}

	// Traced run: each measured phase runs untraced, then traced; the
	// differences are the tracing overhead.
	p := split(total, 1, 1.5, 1.5, 2, 2, 2)
	g.closedLoop(p[0], src.next, &idx)
	dialsWarm := g.dials.Load()
	closedPlain := g.closedLoop(p[1], src.next, &idx)
	tr := newTracer()
	g.tr = tr
	closedTraced := g.closedLoop(p[2], src.next, &idx)
	g.tr = nil
	highPlain := g.openLoop(wl.highRate, p[3], src.next, &idx)
	before, err := scrape(g.client, d.base)
	if err != nil {
		return err
	}
	g.tr = tr
	highTraced := g.openLoop(wl.highRate, p[4], src.next, &idx)
	g.tr = nil
	after, err := scrape(g.client, d.base)
	if err != nil {
		return err
	}
	for _, ph := range []phase{closedPlain, closedTraced, highPlain, highTraced} {
		out.cnt.add(ph.cnt)
	}
	newConns := g.dials.Load() - dialsWarm

	L := out.layers
	lat, failed, lags := highTraced.latencies()
	traced := summarize(lat, failed)
	plainLat, plainFailed, _ := highPlain.latencies()
	plain := summarize(plainLat, plainFailed)
	L.set("loadgen.lag_p99_ms", quantileMS(lags, 99), "ms")
	L.set("loadgen.new_conns_after_warmup", float64(newConns), "count")
	sd := serviceDeltaOf(before, after, "/v1/run", "/v1/advice")
	sd.metrics(L)
	handler := 1000 * ratio(sd.handlerSec, sd.requests)
	L.set("service.wire_ms_mean", highTraced.wireMeanMS()-handler, "ms")
	L.set("service.response_bytes_mean", highTraced.bytesMean(), "bytes")
	L.set("trace.overhead_p50_ms", traced.P50-plain.P50, "ms")
	L.set("trace.overhead_rps", closedPlain.rate()-closedTraced.rate(), "1/s")

	rep := replayServe(src, p[5], tr)
	if rep.err != nil {
		return rep.err
	}
	rep.metrics(L)
	executed := 1 - L["service.respcache_hit_ratio"].Value
	L.set("core.execute_share", ratio(executed*rep.coreMeanMS(), highTraced.wireMeanMS()), "ratio")

	st := selfTimes(tr.snapshot())
	spanMetrics(L, st)
	L.set("trace.unattributed_ms", st["client.request"].meanSelfMS(), "ms")
	L.set("trace.client_ms_mean", ratio(ms(st["client.request"].Total), float64(st["client.request"].Count)), "ms")
	fillLayers(L)
	out.spans = tr
	return nil
}

// reportOpen adds one open-loop phase's latency figures to the report.
func reportOpen(m metricSet, name string, rate float64, p phase) {
	lat, failed, lags := p.latencies()
	d := summarize(lat, failed)
	m.set(name+".rate", rate, "req/s")
	m.set(name+".p50_ms", d.P50, "ms")
	m.set(name+".p99_ms", d.P99, "ms")
	m.set(name+".samples", float64(d.N), "count")
	m.set(name+".beyond_p99", float64(d.Beyond99), "count")
	m.set(name+".failed", float64(d.Failed), "count")
	m.set(name+".lag_p99_ms", quantileMS(lags, 99), "ms")
}
