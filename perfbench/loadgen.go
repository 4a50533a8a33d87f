package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// request is one HTTP call the generator makes. check validates a 200
// body; it must copy anything it keeps.
type request struct {
	path   string
	body   []byte
	apiKey string
	check  func(body []byte) error
}

// source returns the i-th request of a run. Indexes are unique across the
// run's phases, so a source can derive fresh inputs from them.
type source func(i int64) *request

// sample is one finished request, times relative to its phase's start.
// For closed-loop phases due equals sent.
type sample struct {
	due, sent, done time.Duration
	// lag is how late the generator sent: send time minus the later of
	// the due time and the moment a connection was free to take it.
	lag   time.Duration
	ok    bool
	bytes int
}

// phase is the outcome of one closed- or open-loop phase.
type phase struct {
	dur     time.Duration
	samples []sample
	cnt     counter
}

// loadgen drives one server over a fixed pool of keep-alive connections.
type loadgen struct {
	base   string
	conns  int
	client *http.Client
	dials  atomic.Int64
	tr     *tracer // nil: untraced
}

func newLoadgen(base string, conns int) *loadgen {
	g := &loadgen{base: base, conns: conns}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	g.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
	return g
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// do sends one request and classifies the outcome. due is when the
// request was scheduled; start is the phase start the sample is relative to.
func (g *loadgen) do(req *request, buf *bytes.Buffer, start, due time.Time, lag time.Duration) (sample, counter) {
	var cnt counter
	cnt.attempted = 1
	ctx := context.Background()
	sent := time.Now()
	// The transport calls these from its own goroutines; offsets from sent
	// travel through atomics.
	var wrote, first atomic.Int64
	if g.tr != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(sent))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(sent))) },
		})
	}
	s := sample{due: due.Sub(start), sent: sent.Sub(start), lag: lag}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+req.path, bytes.NewReader(req.body))
	if err == nil {
		hr.Header.Set("Content-Type", "application/json")
		if req.apiKey != "" {
			hr.Header.Set("X-API-Key", req.apiKey)
		}
		var resp *http.Response
		resp, err = g.client.Do(hr)
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
			case resp.StatusCode != http.StatusOK:
				err = fmt.Errorf("%s: status %d: %.200s", req.path, resp.StatusCode, buf.Bytes())
			default:
				if cerr := req.check(buf.Bytes()); cerr != nil {
					cnt.wrong = 1
					cnt.firstWrong = fmt.Sprintf("%s %s: %v", req.path, req.body, cerr)
					err = cerr
				}
			}
			s.bytes = buf.Len()
		}
	}
	done := time.Now()
	s.done = done.Sub(start)
	s.ok = err == nil
	if !s.ok {
		cnt.failed = 1
		if cnt.firstWrong == "" {
			cnt.firstWrong = err.Error()
		}
	}
	if g.tr != nil {
		g.record(due, sent, sent.Add(time.Duration(wrote.Load())), sent.Add(time.Duration(first.Load())), done)
	}
	return s, cnt
}

// record emits one request's client-side span chain. The children
// partition the root: waiting for the generator, writing the request,
// waiting on the server, reading and checking the response.
func (g *loadgen) record(due, sent, wrote, first, done time.Time) {
	if first.Before(wrote) {
		first = wrote
	}
	t := g.tr
	trace := t.newID()
	root := t.add("client.request", trace, 0, 0, due, done)
	t.add("loadgen.wait", trace, 0, root, due, sent)
	t.add("http.write", trace, 0, root, sent, wrote)
	t.add("server.wait", trace, 0, root, wrote, first)
	t.add("http.read", trace, 0, root, first, done)
}

// closedLoop runs g.conns clients back to back for dur.
func (g *loadgen) closedLoop(dur time.Duration, src source, idx *atomic.Int64) phase {
	return g.run(dur, func(start time.Time, buf *bytes.Buffer, pace *pacer) (sample, counter, bool) {
		now := time.Now()
		if now.Sub(start) >= dur {
			return sample{}, counter{}, false
		}
		s, c := g.do(src(idx.Add(1)-1), buf, start, now, 0)
		return s, c, true
	})
}

// openLoop sends at a fixed rate for dur: request k is due at
// start + k/rate whether or not earlier requests have finished. Each of
// the g.conns senders takes the next due slot when it is free, so a slow
// server delays later requests and that delay counts in their latency.
func (g *loadgen) openLoop(rate float64, dur time.Duration, src source, idx *atomic.Int64) phase {
	var slots atomic.Int64
	interval := float64(time.Second) / rate
	return g.run(dur, func(start time.Time, buf *bytes.Buffer, pace *pacer) (sample, counter, bool) {
		k := slots.Add(1) - 1
		offset := time.Duration(float64(k) * interval)
		if offset >= dur {
			return sample{}, counter{}, false
		}
		due := start.Add(offset)
		ready := time.Now()
		pace.sleepUntil(due)
		sent := time.Now()
		lag := sent.Sub(due)
		if ready.After(due) {
			lag = sent.Sub(ready)
		}
		s, c := g.do(src(idx.Add(1)-1), buf, start, due, lag)
		return s, c, true
	})
}

// run starts g.conns senders executing step until it reports done, then
// merges their samples.
func (g *loadgen) run(dur time.Duration, step func(start time.Time, buf *bytes.Buffer, pace *pacer) (sample, counter, bool)) phase {
	start := time.Now()
	per := make([]phase, g.conns)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			var buf bytes.Buffer
			pace := newPacer()
			defer pace.close()
			for {
				s, c, more := step(start, &buf, pace)
				if !more {
					return
				}
				p.samples = append(p.samples, s)
				p.cnt.add(c)
			}
		}(&per[w])
	}
	wg.Wait()
	out := phase{dur: time.Since(start)}
	for _, p := range per {
		out.samples = append(out.samples, p.samples...)
		out.cnt.add(p.cnt)
	}
	return out
}

// merge appends another chunk of the same phase.
func (p *phase) merge(o phase) {
	p.dur += o.dur
	p.samples = append(p.samples, o.samples...)
	p.cnt.add(o.cnt)
}

// okCount is the number of correct completions.
func (p phase) okCount() int {
	n := 0
	for _, s := range p.samples {
		if s.ok {
			n++
		}
	}
	return n
}

// latencies splits a phase into successful latencies measured from the
// due time, the failure count, and the generator lags.
func (p phase) latencies() (lat []time.Duration, failed int, lags []time.Duration) {
	for _, s := range p.samples {
		lags = append(lags, s.lag)
		if !s.ok {
			failed++
			continue
		}
		lat = append(lat, s.done-s.due)
	}
	return lat, failed, lags
}

// p50 is the phase's median latency in ms from the due time, failures
// ranked last.
func (p phase) p50() float64 {
	lat, failed, _ := p.latencies()
	return summarize(lat, failed).P50
}

// rate is correct completions per second over the phase.
func (p phase) rate() float64 {
	return ratio(float64(p.okCount()), p.dur.Seconds())
}

// wireMeanMS is the mean client-observed service time (send to done) over
// successful requests.
func (p phase) wireMeanMS() float64 {
	var sum time.Duration
	n := 0
	for _, s := range p.samples {
		if s.ok {
			sum += s.done - s.sent
			n++
		}
	}
	return ratio(ms(sum), float64(n))
}

// bytesMean is the mean response body size over successful requests.
func (p phase) bytesMean() float64 {
	var sum, n float64
	for _, s := range p.samples {
		if s.ok {
			sum += float64(s.bytes)
			n++
		}
	}
	return ratio(sum, n)
}

// pacer sleeps until a deadline to within tens of microseconds.
// time.Sleep alone rounds sub-millisecond waits up to a millisecond when
// the process is otherwise idle (the runtime's poller waits in whole
// milliseconds), so a pacer waits on a Linux timerfd, which the poller
// wakes on as soon as it fires. Without a timerfd it falls back to
// time.Sleep.
type pacer struct {
	fd  uintptr
	f   *os.File // nil: fall back to time.Sleep
	buf [8]byte
}

func newPacer() *pacer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &pacer{}
	}
	// The fd is non-blocking, so reads park the goroutine in the poller.
	// Never call f.Fd(): it would switch the file to blocking mode.
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (p *pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if p.f != nil {
		// struct itimerspec {it_interval, it_value}, relative to now.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno == 0 {
			if _, err := p.f.Read(p.buf[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Until(t))
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
