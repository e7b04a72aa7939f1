// Command serve demonstrates the network serving layer end to end in
// one process: it boots the HTTP service on a loopback port, dials it
// with the Go client, subscribes to a session's event stream over SSE,
// streams a simulated walk into the session in batches, and finally
// runs the same trace through the server's batch pool — then drains the
// server gracefully.
//
// In a real deployment the two halves run in different processes: the
// server side is `ptrack-serve -addr :8080 -rate 50`, and the client
// side is everything below client.Dial. See docs/SERVING.md for the
// wire API the two speak.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"ptrack"
	"ptrack/client"
	"ptrack/internal/server"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve example:", err)
		os.Exit(1)
	}
}

// run writes the example's progress to stdout.
func run(stdout io.Writer) error {
	// Simulate two minutes of walking to stream.
	rec, err := ptrack.Simulate(ptrack.DefaultSimProfile(), ptrack.DefaultSimConfig(),
		[]ptrack.SimSegment{{Activity: ptrack.ActivityWalking, Duration: 120}})
	if err != nil {
		return err
	}
	tr := rec.Trace

	// --- server side (normally: ptrack-serve -addr :8080 -rate 50) ---
	srv, err := server.New(server.Config{
		SampleRate: tr.SampleRate,
		RatePerSec: 50, // per-client throttle, 429 + Retry-After past the burst
	})
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "server listening on %s\n", srv.Addr())

	// --- client side ---------------------------------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c, err := client.Dial("http://"+srv.Addr(), client.WithBinary(), client.WithBatchSize(200))
	if err != nil {
		return err
	}

	// Subscribe before pushing so no event is missed, then stream the
	// trace and end the session; End flushes the server-side tracker so
	// the trailing events arrive before the stream closes.
	events, err := c.Events(ctx, "wrist-42")
	if err != nil {
		return err
	}
	sess := c.Session("wrist-42")
	if err := sess.Push(ctx, tr.Samples...); err != nil {
		return err
	}
	if err := sess.End(ctx); err != nil {
		return err
	}

	steps := 0
	for ev := range events.Events() {
		steps += ev.StepsAdded
		fmt.Fprintf(stdout, "  t=%6.2fs  %-12s steps=%d\n", ev.T, ev.Label, steps)
	}
	if err := events.Err(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "streamed session: %d steps\n", steps)

	// Whole recorded traces go through the pool in one round trip.
	res, err := c.ProcessTrace(ctx, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "batch result:     %d steps, %.1f m\n", res.Steps, res.Distance)

	// Graceful drain: in-flight work finishes, sessions flush, trailing
	// events are delivered, then the listener closes.
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	return srv.Shutdown(sctx)
}
