// Command perfbench is the repository benchmark: it launches the real
// ptrack-serve, drives it from this single process over at most nproc
// connections with inputs generated from a seed, checks every served
// result against an in-process reference and against simulator ground
// truth, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced in-process replay) as one JSON line.
//
// Run it through perfbench/run.sh from the repository root, which
// builds both binaries first:
//
//	sh perfbench/run.sh --workload hot-binary --seed 1 --seconds 15 --trace 0
//	sh perfbench/run.sh --workload fleet-durable --seed 1 --seconds 15 --repeat 5
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0, in print order.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"success_rate", "ratio", "higher"},
	{"ingest_p50_ms", "ms", "lower"},
	{"event_p50_ms", "ms", "lower"},
	{"batch_p50_ms", "ms", "lower"},
	{"throughput_sps", "samples/s", "higher"},
	{"server_cpu_ns_per_sample", "ns", "lower"},
	{"server_rss_mb", "MiB", "lower"},
	{"step_error_pct", "%", "lower"},
	{"distance_error_pct", "%", "lower"},
}

// workloads maps each workload name onto the function that runs it.
var workloads = map[string]func(*env) (*outcome, error){
	"hot-binary":    runHot,
	"fleet-durable": runFleet,
	"batch-json":    runBatch,
}

// env is what one benchmark run is given.
type env struct {
	serveBin string
	srvCPU   int // CPU ptrack-serve is pinned to, or -1
	workDir  string
	seed     int64
	seconds  float64
	trace    bool
	guard    *connGuard
	log      io.Writer

	// dropPush, when >= 0, silently skips that measured push (by
	// schedule index) while the reference still expects it: the
	// self-test's way to prove a lost sample is caught and named.
	dropPush int
	// small shrinks every workload's scale for the self-tests.
	small bool
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int64
	failures          []string // named failures, first few kept
	digest            string
	setups            []float64
	timings           map[string]*sampleSet // ingest, event, batch (ms)
	e2e               map[string]float64
	layers            map[string]float64
	unavailable       map[string]string // layer metric → why it is 0
	// invalid is set when the run measured too little to report (a p99
	// without enough samples beyond it); the summary still prints, the
	// result line does not.
	invalid error
}

func newOutcome() *outcome {
	return &outcome{
		timings: map[string]*sampleSet{
			"ingest": {}, "event": {}, "batch": {},
		},
		e2e:         map[string]float64{},
		layers:      map[string]float64{},
		unavailable: map[string]string{},
	}
}

// fail records one failed operation with a reason naming what failed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 3 && os.Args[1] == "-exec-on-cpu" {
		// Launcher mode, used to start ptrack-serve on its own CPU.
		cpu, err := strconv.Atoi(os.Args[2])
		if err == nil {
			err = execPinned(cpu, os.Args[3:])
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "hot-binary | fleet-durable | batch-json")
		seed     = fs.Int64("seed", 1, "input seed: the same seed generates byte-identical inputs")
		seconds  = fs.Float64("seconds", 15, "measured window length in seconds")
		traceOn  = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced in-process replay instead of the end-to-end metrics")
		serve    = fs.String("serve", "", "path to the ptrack-serve binary under test")
		work     = fs.String("work", "", "directory for server state and span files")
		repeat   = fs.Int("repeat", 0, "steadiness mode: run the workload this many times with seeds seed, seed+1, … and report each metric's spread")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *serve == "" || *work == "" {
		return errors.New("-serve and -work are required (use perfbench/run.sh)")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	nproc := runtime.NumCPU()
	gen, srvCPU, pinned := placement()
	if pinned {
		if err := pinSelf(gen); err != nil {
			return err
		}
	}
	if runtime.GOMAXPROCS(0) > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d", runtime.GOMAXPROCS(0), nproc)
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > nproc {
			return fmt.Errorf("GOMAXPROCS=%d (inherited by ptrack-serve) exceeds nproc=%d", n, nproc)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	mk := func(s int64, tr bool) *env {
		return &env{
			serveBin: *serve, srvCPU: srvCPU, workDir: *work, seed: s, seconds: *seconds, trace: tr,
			guard: newConnGuard(nproc), log: stderr, dropPush: -1,
		}
	}
	if *repeat > 0 {
		return steadiness(*workload, drive, *repeat, func(i int) *env { return mk(*seed+int64(i), false) }, stdout)
	}
	e := mk(*seed, *traceOn == 1)
	o, err := drive(e)
	if err != nil {
		return err
	}
	return report(e, o, stdout)
}

// finish computes the shared end-to-end metrics from an outcome's raw
// timings and checks the connection budget. Workloads call it last.
func (e *env) finish(o *outcome) error {
	o.e2e["setup_s"] = median(o.setups)
	o.e2e["success_rate"] = float64(o.attempted-o.failed) / float64(o.attempted)
	for _, k := range []string{"ingest", "event", "batch"} {
		t, err := summarize(k, o.timings[k])
		if err != nil && o.invalid == nil {
			o.invalid = err
		}
		o.e2e[k+"_p50_ms"] = t.P50
		o.layers["tail."+k+"_p99_ms"] = t.P99
	}
	o.layers["loadgen.peak_conns"] = float64(e.guard.peak.Load())
	if peak := int(e.guard.peak.Load()); peak > e.guard.limit {
		return fmt.Errorf("generator held %d connections, budget is %d", peak, e.guard.limit)
	}
	return nil
}

// report prints the human summary lines and, last, the JSON result.
func report(e *env, o *outcome, w io.Writer) error {
	fmt.Fprintf(w, "inputs digest %s (seed %d)\n", o.digest, e.seed)
	for _, k := range []string{"ingest", "event", "batch"} {
		t, _ := summarize(k, o.timings[k])
		fmt.Fprintf(w, "%-7s n=%-7d p50=%.4f ms p99=%.4f ms beyond_p99=%d\n", k, t.N, t.P50, t.P99, t.Beyond)
	}
	fmt.Fprintf(w, "setups %v s\n", o.setups)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if o.invalid != nil {
		return o.invalid
	}
	metrics := map[string]map[string]any{}
	if e.trace {
		names := make([]string, 0, len(layerMetrics))
		for _, d := range layerMetrics {
			v, ok := o.layers[d.name]
			if !ok {
				return fmt.Errorf("layer metric %s was not measured", d.name)
			}
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
			names = append(names, d.name)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("layer %-40s %14.4f %s", n, o.layers[n], metrics[n]["unit"])
			if why := o.unavailable[n]; why != "" {
				line += "  (" + why + ")"
			}
			fmt.Fprintln(w, line)
		}
	} else {
		for _, d := range e2eMetrics {
			v, ok := o.e2e[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
			fmt.Fprintf(w, "metric %-26s %14.4f %s (%s is better)\n", d.name, v, d.unit, d.better)
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(out))
	return nil
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
