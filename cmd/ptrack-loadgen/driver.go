package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ptrack/client"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// cell is one sweep point: a framing × session-count × mode combination
// driven against one server for a fixed duration.
type cell struct {
	Mode     string  `json:"mode"`    // "open" or "closed"
	Framing  string  `json:"framing"` // "ndjson" or "binary"
	Sessions int     `json:"sessions"`
	RateHz   float64 `json:"rate_hz"` // per-session sample rate
	Batch    int     `json:"batch"`   // samples per push request
	Speedup  float64 `json:"speedup"` // open-loop time compression
}

// cellResult aggregates one cell's run. Latencies are reported as
// nanosecond quantiles; rates as fractions in [0,1].
type cellResult struct {
	cell
	Elapsed time.Duration `json:"elapsed_ns"`

	AcceptedSamples int64   `json:"accepted_samples"`
	GoodputSPS      float64 `json:"goodput_sps"` // accepted samples / wall second
	Attempts        int64   `json:"attempts"`
	Rejected        int64   `json:"rejected"`       // 429 + 503 attempts
	TransportErrors int64   `json:"transport_errs"` // attempts with no HTTP response
	FailedPushes    int64   `json:"failed_pushes"`  // Push calls lost after retries
	RejectRate      float64 `json:"reject_rate"`

	Events        int64   `json:"events"`
	EventsDropped int64   `json:"events_dropped"` // lost to slow-subscriber gaps
	EventDropRate float64 `json:"event_drop_rate"`

	IngestP50  time.Duration `json:"ingest_p50_ns"`
	IngestP99  time.Duration `json:"ingest_p99_ns"`
	IngestP999 time.Duration `json:"ingest_p999_ns"`
	EventP50   time.Duration `json:"event_p50_ns"`
	EventP99   time.Duration `json:"event_p99_ns"`
	EventP999  time.Duration `json:"event_p999_ns"`
}

// driver holds what a cell run shares across its generator goroutines.
type driver struct {
	bases    []string // replica base URLs; sessions round-robin across them
	hc       *http.Client
	traces   []*trace.Trace // fault-injected source material, round-robin
	nonce    string
	warmup   time.Duration
	duration time.Duration
	retries  int

	ingest   hist
	event    hist
	accepted atomic.Int64
	attempts atomic.Int64
	rejected atomic.Int64
	terrs    atomic.Int64
	failed   atomic.Int64
	events   atomic.Int64
	dropped  atomic.Int64
}

// watermarks maps event timestamps back to push wall-times: the push
// loop records (last trace-time of batch, wall clock after the server
// acked it); the SSE reader finds the first watermark covering an
// event's trace-time — the ack that delivered the event's samples —
// and charges the event's delivery latency against it. Marks and
// events are both monotone in trace time, so the search is a cursor.
type watermarks struct {
	mu    sync.Mutex
	marks []watermark
	idx   int
}

type watermark struct {
	maxT float64
	wall time.Time
}

func (w *watermarks) record(maxT float64, wall time.Time) {
	w.mu.Lock()
	w.marks = append(w.marks, watermark{maxT, wall})
	w.mu.Unlock()
}

// match returns the push wall-time that covered trace-time t, or zero
// when no recorded push covers it (event raced ahead of bookkeeping —
// skipped rather than guessed).
func (w *watermarks) match(t float64) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.idx < len(w.marks) && w.marks[w.idx].maxT < t {
		w.idx++
	}
	if w.idx == len(w.marks) {
		return time.Time{}
	}
	return w.marks[w.idx].wall
}

// runCell drives one sweep cell: cfg.Sessions concurrent sessions, each
// replaying a gait trace in batches over the cell's framing, with event
// subscriptions open end to end. Open-loop mode paces each session at a
// fixed request schedule and measures latency from the scheduled send
// time — queue delay from a lagging server counts, per the
// coordinated-omission rule. Closed-loop mode sends the next batch the
// moment the previous one completes.
func (d *driver) runCell(ctx context.Context, cfg cell) (*cellResult, error) {
	// One client per target replica; session i sticks to client i%n, so
	// a multi-replica sweep spreads entry points without a session ever
	// switching replicas mid-stream.
	clients := make([]*client.Client, len(d.bases))
	for i, base := range d.bases {
		c, err := d.dial(cfg, base)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}

	start := time.Now()
	deadline := start.Add(d.duration)
	warmUntil := start.Add(d.warmup)

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := d.runSession(ctx, clients[i%len(clients)], cfg, i, deadline, warmUntil); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	res := &cellResult{cell: cfg, Elapsed: elapsed}
	res.AcceptedSamples = d.accepted.Load()
	res.GoodputSPS = float64(res.AcceptedSamples) / elapsed.Seconds()
	res.Attempts = d.attempts.Load()
	res.Rejected = d.rejected.Load()
	res.TransportErrors = d.terrs.Load()
	res.FailedPushes = d.failed.Load()
	if res.Attempts > 0 {
		res.RejectRate = float64(res.Rejected) / float64(res.Attempts)
	}
	res.Events = d.events.Load()
	res.EventsDropped = d.dropped.Load()
	if total := res.Events + res.EventsDropped; total > 0 {
		res.EventDropRate = float64(res.EventsDropped) / float64(total)
	}
	res.IngestP50 = d.ingest.quantile(0.50)
	res.IngestP99 = d.ingest.quantile(0.99)
	res.IngestP999 = d.ingest.quantile(0.999)
	res.EventP50 = d.event.quantile(0.50)
	res.EventP99 = d.event.quantile(0.99)
	res.EventP999 = d.event.quantile(0.999)
	return res, nil
}

func (d *driver) dial(cfg cell, base string) (*client.Client, error) {
	opts := []client.Option{
		client.WithHTTPClient(d.hc),
		client.WithBatchSize(cfg.Batch),
		client.WithRetry(d.retries, 10*time.Millisecond, 500*time.Millisecond),
		client.WithAttemptHook(func(a client.Attempt) {
			if a.Op != "push" {
				return
			}
			d.attempts.Add(1)
			switch {
			case a.Status == 0:
				d.terrs.Add(1)
			case a.Status == http.StatusTooManyRequests || a.Status == http.StatusServiceUnavailable:
				d.rejected.Add(1)
			}
		}),
	}
	if cfg.Framing == "binary" {
		opts = append(opts, client.WithBinary())
	}
	return client.Dial(base, opts...)
}

// runSession is one generator goroutine: subscribe to events, replay a
// trace in fixed batches until the deadline, end the session, wait for
// the event stream to drain.
func (d *driver) runSession(ctx context.Context, c *client.Client, cfg cell, i int, deadline, warmUntil time.Time) error {
	src := d.traces[i%len(d.traces)]
	rep, err := gaitsim.NewReplay(src)
	if err != nil {
		return err
	}
	sid := fmt.Sprintf("lg-%s-%s-%s-%d-s%d", d.nonce, cfg.Mode, cfg.Framing, cfg.Sessions, i)
	sess := c.Session(sid)

	wm := &watermarks{}
	esCtx, esCancel := context.WithCancel(ctx)
	defer esCancel()
	es, err := c.Events(esCtx, sid)
	if err != nil {
		return fmt.Errorf("events subscribe %s: %w", sid, err)
	}
	esDone := make(chan struct{})
	go func() {
		defer close(esDone)
		for ev := range es.Events() {
			now := time.Now()
			d.events.Add(1)
			if pushed := wm.match(ev.T); !pushed.IsZero() && now.After(warmUntil) {
				d.event.observe(now.Sub(pushed))
			}
		}
		d.dropped.Add(es.Dropped())
	}()

	interval := time.Duration(float64(cfg.Batch) / cfg.RateHz / cfg.Speedup * float64(time.Second))
	buf := make([]trace.Sample, 0, cfg.Batch)
	start := time.Now()
	var backlog int64 // samples a failed Push left pending client-side
	for k := 0; ; k++ {
		var sentAt time.Time // latency epoch: scheduled (open) or actual (closed) send time
		if cfg.Mode == "open" {
			sentAt = start.Add(time.Duration(k) * interval)
			if wait := time.Until(sentAt); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		} else {
			sentAt = time.Now()
		}
		if time.Now().After(deadline) {
			break
		}
		buf = rep.Next(buf[:0], cfg.Batch)
		err := sess.Push(ctx, buf...)
		done := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Push keeps the samples the server refused pending
			// client-side; they count as accepted only once a later
			// Push or End delivers them.
			d.failed.Add(1)
			backlog += int64(cfg.Batch)
			continue
		}
		d.accepted.Add(int64(cfg.Batch) + backlog)
		backlog = 0
		if done.After(warmUntil) {
			d.ingest.observe(done.Sub(sentAt))
		}
		wm.record(buf[len(buf)-1].T, done)
	}

	endCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := endSession(endCtx, sess); err != nil {
		return fmt.Errorf("end %s: %w", sid, err)
	}
	d.accepted.Add(backlog) // End's flush delivered the leftovers
	select {
	case <-esDone: // server delivered the end event; stream drained
	case <-time.After(10 * time.Second):
		esCancel()
		<-esDone
	}
	return nil
}

// endSession ends sess, flushing what refused pushes left pending.
// That flush is not a measured push: with the per-push retry budget at
// 0 a loaded server's backpressure refuses it routinely, so a refusal
// waits briefly and tries again until ctx ends. The client keeps
// exactly the refused samples pending, so no sample is sent twice.
func endSession(ctx context.Context, sess *client.Session) error {
	for {
		err := sess.End(ctx)
		if err == nil || !errors.Is(err, client.ErrGiveUp) {
			return err
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return err
		}
	}
}

// sources simulates the cell's replay material: a small pool of gait
// traces (walking and running) at the target rate, optionally degraded
// by the fault injector so conditioning paths get exercised too.
func sources(rateHz, severity float64, n int) ([]*trace.Trace, error) {
	if n < 1 {
		n = 1
	}
	acts := []trace.Activity{trace.ActivityWalking, trace.ActivityRunning}
	out := make([]*trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		cfg := gaitsim.DefaultConfig()
		cfg.SampleRate = rateHz
		cfg.Seed = int64(1000 + i)
		rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), cfg, acts[i%len(acts)], 30)
		if err != nil {
			return nil, fmt.Errorf("simulate source %d: %w", i, err)
		}
		tr := rec.Trace
		if severity > 0 {
			tr = gaitsim.InjectFaults(tr, gaitsim.FaultsAtSeverity(severity, int64(2000+i)))
		}
		out = append(out, tr)
	}
	return out, nil
}
