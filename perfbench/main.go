// Command perfbench is the repository benchmark. It runs one named
// workload against the code as built from the source tree, checks every
// output, and prints the workload's metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record spans at every layer boundary and report the per-layer
// metrics. See README.md for the workloads and the metric map; run it
// through run.sh, which builds it and oracled first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the contract line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// outcome is what a workload run produces.
type outcome struct {
	cnt counter
	// e2e holds the end-to-end metrics (untraced runs), layers the
	// per-layer metrics (traced runs), report every further figure the run
	// prints for people (with sample counts) but does not gate on.
	e2e, layers, report metricSet
	host                host
	spans               *tracer
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	oracled  string // path of the oracled binary (serve workloads)
	workdir  string // scratch directory inside the checkout
}

var workloads = map[string]func(options) (*outcome, error){
	"serve-hot":   func(o options) (*outcome, error) { return runServe(o, hotWorkload) },
	"serve-cold":  func(o options) (*outcome, error) { return runServe(o, coldWorkload) },
	"sweep-fleet": runSweep,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "serve-hot | serve-cold | sweep-fleet")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.oracled, "oracled", "", "oracled binary (serve workloads)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files")
	reference := fs.String("reference", "", "serve the reference echo server on this address instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reference != "" {
		return runReference(*reference, stderr)
	}
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || o.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad -seconds\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return finish(o, out, stdout, stderr)
}

// finish prints the provenance, the human report and the contract line.
func finish(o options, out *outcome, stdout, stderr io.Writer) int {
	hj, _ := json.Marshal(out.host)
	fmt.Fprintf(stdout, "host %s\n", hj)
	printSet(stdout, "report", out.report)
	if out.spans != nil {
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
	}
	res := result{
		Correct:   out.cnt.wrong == 0,
		Attempted: out.cnt.attempted,
		Failed:    out.cnt.failed,
		Metrics:   out.e2e,
	}
	if o.trace {
		res.Metrics = out.layers
	}
	printSet(stdout, "metric", res.Metrics)
	if out.cnt.firstWrong != "" {
		fmt.Fprintf(stdout, "first failure: %s\n", out.cnt.firstWrong)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong outputs\n", out.cnt.wrong)
		return 1
	}
	return 0
}

func printSet(w io.Writer, prefix string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s = %.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

// split divides the run's measuring time into phases by weight.
func split(total time.Duration, weights ...float64) []time.Duration {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]time.Duration, len(weights))
	for i, w := range weights {
		out[i] = time.Duration(float64(total) * w / sum)
	}
	return out
}
