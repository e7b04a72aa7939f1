package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"ptrack"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// setupReps is how many times each run sets the server up; setup_s is
// their median.
const setupReps = 3

// userProfile is the simulated user's stride profile, given to the
// server (-profile) and to every in-process reference alike.
var userProfile = gaitsim.DefaultProfile()

func profileFlag() string {
	p := userProfile
	return fmt.Sprintf("%v,%v,%v", p.ArmLength, p.LegLength, p.K)
}

// refOptions are the facade options ptrack-serve builds from the flags
// the benchmark passes it (its observer aside, which does not change
// results).
func refOptions(conditioning bool) []ptrack.Option {
	p := userProfile
	opts := []ptrack.Option{ptrack.WithProfile(p.ArmLength, p.LegLength, p.K)}
	if conditioning {
		opts = append(opts, ptrack.WithConditioning())
	}
	return opts
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sleepUntil blocks until t. It sleeps in the nanosleep system call
// rather than on a runtime timer: runtime timers wake through the
// network poller, whose millisecond timeout would add up to a
// millisecond of send lag to every open-loop request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// schedOp is one open-loop push: due at `at` after the window starts;
// idx indexes the workload's push list.
type schedOp struct {
	at  time.Duration
	idx int
}

// runSchedule issues ops in order, each no earlier than its due time
// and no sooner than minGap after the previous send, and records how
// late each was actually sent. send gets the due time and times the
// request from it (the coordinated-omission-honest rule), so a stall
// shows up in every request it delays. minGap bounds how fast a late
// generator catches up, as a device's radio link would.
//
// The generator's garbage collector is held off for the window: a
// collection is a pause of the generator, not of the server, yet it
// would delay every push scheduled during it.
func runSchedule(start time.Time, ops []schedOp, minGap time.Duration, lag *sampleSet, send func(op schedOp, due time.Time)) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var last time.Time
	for _, op := range ops {
		due := start.Add(op.at)
		at := due
		if next := last.Add(minGap); next.After(at) {
			at = next
		}
		sleepUntil(at)
		last = time.Now()
		lag.add(ms(last.Sub(due)))
		send(op, due)
	}
}

// canaries are the /v1/batch requests the streaming workloads send so
// that batch latency is measured on every workload: one-trace requests
// of short traces sliced from the workload's own recording, sent closed
// loop on the push connection right after the streaming window, while
// the window's sessions are still live. Sending them after the window
// keeps them out of the push latencies and the window's CPU figure.
type canaries struct {
	traces []*trace.Trace
	ref    []*ptrack.Result
}

// canaryCount and canaryS size the canary phase: 1500 requests give 15
// latencies beyond p99; 4 s traces make the phase last a few seconds,
// long enough to average over the machine's short stalls.
const (
	canaryCount = 1500
	canaryS     = 4.0
)

func newCanaries(src *trace.Trace, n int, opts []ptrack.Option) (*canaries, error) {
	per := int(canaryS * src.SampleRate)
	if n*per > len(src.Samples) {
		return nil, fmt.Errorf("canary source too short: %d samples for %d canaries", len(src.Samples), n)
	}
	c := &canaries{}
	tk, err := ptrack.New(opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		tr := &trace.Trace{SampleRate: src.SampleRate, Samples: src.Samples[i*per : (i+1)*per]}
		c.traces = append(c.traces, tr)
		res, err := tk.Process(tr)
		if err != nil {
			return nil, fmt.Errorf("canary reference %d: %w", i, err)
		}
		c.ref = append(c.ref, res)
	}
	return c, nil
}

// body encodes canary i as a one-trace batch request.
func (c *canaries) body(dst []byte, i int) ([]byte, error) {
	frag, err := json.Marshal(wire.FromTrace(c.traces[i]))
	if err != nil {
		return nil, err
	}
	dst = append(dst, `{"traces":[`...)
	dst = append(dst, frag...)
	return append(dst, `]}`...), nil
}

// batchReply is the part of a /v1/batch response the benchmark checks.
type batchReply struct {
	Results []struct {
		Result *struct {
			Steps    int
			Distance float64
			Cycles   []struct{}
		} `json:"result"`
		Error string `json:"error"`
	} `json:"results"`
}

// checkBatch compares a batch response with the reference results of
// the traces it carried, returning the number of classified cycles.
func checkBatch(body []byte, want []*ptrack.Result, what string) (cycles int, err error) {
	var r batchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("%s: decoding response: %w", what, err)
	}
	if len(r.Results) != len(want) {
		return 0, fmt.Errorf("%s: %d results for %d traces", what, len(r.Results), len(want))
	}
	for i, got := range r.Results {
		if got.Error != "" || got.Result == nil {
			return 0, fmt.Errorf("%s: trace %d failed: %s", what, i, got.Error)
		}
		if got.Result.Steps != want[i].Steps || got.Result.Distance != want[i].Distance {
			return 0, fmt.Errorf("%s: trace %d served steps=%d distance=%v, reference steps=%d distance=%v",
				what, i, got.Result.Steps, got.Result.Distance, want[i].Steps, want[i].Distance)
		}
		cycles += len(got.Result.Cycles)
	}
	return cycles, nil
}

// run sends every canary in turn on l, timing each from its send, and
// hashes the bodies into dig.
func (c *canaries) run(l *lane, base string, o *outcome, dig *digest) {
	var buf bytes.Buffer
	var body []byte
	for i := range c.traces {
		o.attempted++
		var err error
		if body, err = c.body(body[:0], i); err != nil {
			o.fail("canary %d: encode: %v", i, err)
			continue
		}
		dig.add(body)
		sent := time.Now()
		status, err := l.do("POST", base+"/v1/batch", wire.ContentTypeJSON, bytes.NewReader(body), int64(len(body)), &buf)
		done := time.Now()
		switch {
		case err != nil:
			o.fail("canary %d: %v", i, err)
			continue
		case status != 200:
			o.fail("canary %d: status %d: %s", i, status, trimBody(buf.Bytes()))
			continue
		}
		if _, err := checkBatch(buf.Bytes(), c.ref[i:i+1], fmt.Sprintf("canary %d", i)); err != nil {
			o.fail("%v", err)
			continue
		}
		o.timings["batch"].add(ms(done.Sub(sent)))
	}
}

func trimBody(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// eventRec is one served cycle event with its arrival time.
type eventRec struct {
	ev ptrack.Event
	at time.Time
}

// parseEvents decodes an SSE message list into cycle events, counting
// gap frames (events the server dropped for a slow subscriber).
func parseEvents(msgs []sseMsg) (evs []eventRec, gaps int64, err error) {
	for _, m := range msgs {
		switch m.kind {
		case "cycle":
			ev, err := wire.ParseEventJSON(m.data)
			if err != nil {
				return nil, gaps, err
			}
			evs = append(evs, eventRec{ev: ev, at: m.at})
		case "gap":
			n, err := wire.ParseGapJSON(m.data)
			if err != nil {
				return nil, gaps, err
			}
			gaps += n
		}
	}
	return evs, gaps, nil
}

// sameEvents compares a served event sequence with the reference one,
// field by field, and describes the first difference.
func sameEvents(got []eventRec, want []ptrack.Event) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		g, w := got[i].ev, want[i]
		if g.T != w.T || g.Label != w.Label || g.StepsAdded != w.StepsAdded ||
			g.TotalSteps != w.TotalSteps || !sameFloats(g.Strides, w.Strides) {
			return fmt.Sprintf("event %d differs: served t=%v steps=%d total=%d, reference t=%v steps=%d total=%d",
				i, g.T, g.StepsAdded, g.TotalSteps, w.T, w.StepsAdded, w.TotalSteps)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("served %d events, reference %d", len(got), len(want))
	}
	return ""
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// refRun is an in-process reference replay of one session.
type refRun struct {
	events []ptrack.Event
	// trigger holds, per event, the index of the push whose processing
	// emitted it, or -1 for events a flush emitted.
	trigger []int
	online  *ptrack.Online
}

// refStream runs blocks through a fresh in-process online tracker the
// way a hub session does, flushing where the server flushes (flushAfter
// holds block indices after which the session was drained by a
// shutdown; final flushes at the end, as ending the session does).
func refStream(rate float64, opts []ptrack.Option, blocks [][]trace.Sample, flushAfter map[int]bool, final bool) (*refRun, error) {
	on, err := ptrack.NewOnline(rate, opts...)
	if err != nil {
		return nil, err
	}
	r := &refRun{online: on}
	keep := func(evs []ptrack.Event, trigger int) {
		for _, ev := range evs {
			ev.Strides = append([]float64(nil), ev.Strides...)
			r.events = append(r.events, ev)
			r.trigger = append(r.trigger, trigger)
		}
	}
	var buf []ptrack.Event
	for i, b := range blocks {
		buf = on.PushBlock(b, buf[:0])
		keep(buf, i)
		if flushAfter[i] {
			keep(on.Flush(), -1)
		}
	}
	if final {
		keep(on.Flush(), -1)
	}
	return r, nil
}

// eventLatencies records, for each served event a measured push made
// decidable, the delay from that push's scheduled send to the event's
// arrival: the serving pipeline's delay, without the algorithm's own
// wait for the cycle's trailing margin (a fixed number of samples,
// which at many times real time would quantize the figure into push
// intervals). due holds each push's scheduled send (zero for pushes
// outside the window); served events past the reference are ignored.
func eventLatencies(dst *sampleSet, served []eventRec, ref *refRun, due []time.Time, before time.Time) {
	for i, r := range served {
		if i >= len(ref.trigger) || r.at.After(before) {
			break
		}
		if k := ref.trigger[i]; k >= 0 && !due[k].IsZero() {
			dst.add(ms(r.at.Sub(due[k])))
		}
	}
}

// eventAccuracy attributes served events to truth spans and adds the
// per-span absolute step and distance errors to acc. Truth is counted
// up to horizon (the trace time the served events cover).
func eventAccuracy(acc *accuracy, truth *trace.GroundTruth, evs []eventRec, horizon float64) {
	b := newBuckets(clipTruth(truth, horizon))
	steps := make([]float64, len(b.ends))
	dist := make([]float64, len(b.ends))
	for _, r := range evs {
		k := b.index(r.ev.T)
		steps[k] += float64(r.ev.StepsAdded)
		for _, s := range r.ev.Strides {
			dist[k] += s
		}
	}
	for k := range b.ends {
		acc.add(steps[k], b.steps[k], dist[k], b.dist[k])
	}
}

// clipTruth keeps the spans and steps of truth that lie before horizon.
func clipTruth(truth *trace.GroundTruth, horizon float64) *trace.GroundTruth {
	out := &trace.GroundTruth{}
	for _, sp := range truth.Activities {
		if sp.Start >= horizon {
			break
		}
		if sp.End > horizon {
			sp.End = horizon
		}
		out.Activities = append(out.Activities, sp)
	}
	for _, st := range truth.Steps {
		if st.T <= horizon {
			out.Steps = append(out.Steps, st)
			out.Distance += st.Stride
		}
	}
	return out
}
