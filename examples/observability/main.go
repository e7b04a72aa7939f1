// Command observability demonstrates the instrumented streaming
// pipeline: it runs the online tracker over a simulated mixed-activity
// stream with the debug server enabled, logs every classified cycle at
// debug level, and prints a Prometheus metrics snapshot at exit.
//
// While it runs (pass -hold to keep it alive), poke the endpoints:
//
//	curl localhost:6060/metrics
//	curl localhost:6060/debug/vars
//	go tool pprof localhost:6060/debug/pprof/profile?seconds=5
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"ptrack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "observability example:", err)
		os.Exit(1)
	}
}

// run parses args, writes the report and the metrics snapshot to stdout
// and the debug-level cycle log to logw.
func run(args []string, stdout, logw io.Writer) error {
	fs := flag.NewFlagSet("observability", flag.ExitOnError)
	addr := fs.String("debug-addr", "localhost:6060", "debug server address")
	hold := fs.Duration("hold", 0, "keep the debug server up this long after processing (e.g. 1m)")
	fs.Parse(args) // ExitOnError: a bad flag exits, as flag.Parse did

	// A stream with all three regimes: genuine walking, walking with a
	// still arm ("stepping"), and non-locomotive interference.
	rec, err := ptrack.Simulate(ptrack.DefaultSimProfile(), ptrack.DefaultSimConfig(),
		[]ptrack.SimSegment{
			{Activity: ptrack.ActivityWalking, Duration: 40},
			{Activity: ptrack.ActivityEating, Duration: 20},
			{Activity: ptrack.ActivityStepping, Duration: 40},
		})
	if err != nil {
		return err
	}

	metrics := ptrack.NewMetrics()
	logger := ptrack.NewLogger(logw, slog.LevelDebug)
	observer := ptrack.NewObserver(metrics).WithCycleLogger(logger)

	srv, err := ptrack.ServeDebug(*addr, metrics)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "debug server on http://%s (metrics, /debug/vars, /debug/pprof)\n\n", srv.Addr())

	on, err := ptrack.NewOnline(rec.Trace.SampleRate,
		ptrack.WithProfile(0.62, 0.90, 2.35),
		ptrack.WithObserver(observer))
	if err != nil {
		return err
	}
	events := 0
	for _, s := range rec.Trace.Samples {
		events += len(on.Push(s))
	}
	events += len(on.Flush())

	fmt.Fprintf(stdout, "\nprocessed %d samples, %d events, %d steps (truth %d)\n\n",
		len(rec.Trace.Samples), events, on.Steps(), rec.Truth.StepCount())

	fmt.Fprintln(stdout, "--- metrics snapshot ---")
	if err := metrics.WritePrometheus(stdout); err != nil {
		return err
	}

	if *hold > 0 {
		fmt.Fprintf(stdout, "\nholding debug server for %v...\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}
