package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"ptrack"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// batch-json: offline analysis callers. Two closed-loop clients, one
// per connection, each post multi-trace /v1/batch requests of 100 Hz
// traces and wait for the reply before sending the next. This is the
// workload that bypasses the session hub and the streaming tracker.
const (
	batchRate   = 100.0
	batchPool   = 512 // distinct traces requests draw from
	batchTraceS = 8.0 // seconds per trace
	batchPerReq = 2   // traces per request (~0.25 MiB of JSON)
	batchWarm   = 4   // priming requests per client per setup
)

func runBatch(e *env) (*outcome, error) {
	o := newOutcome()
	pool := batchPool
	if e.small {
		pool = 16
	}
	recs, err := simulateAll(pool, batchRate, func(i int) (int64, []gaitsim.Segment) {
		s := e.seed*15485863 + int64(i)
		return s, shortScript(rand.New(rand.NewSource(s)), batchTraceS)
	})
	if err != nil {
		return nil, err
	}
	frags := make([][]byte, pool)
	refs := make([]*ptrack.Result, pool)
	tk, err := ptrack.New(refOptions(false)...)
	if err != nil {
		return nil, err
	}
	dig := newDigest()
	for i, r := range recs {
		bt := wire.FromTrace(r.Trace)
		if frags[i], err = json.Marshal(bt); err != nil {
			return nil, err
		}
		dig.add(frags[i])
		// The reference sees exactly what the server decodes.
		if refs[i], err = tk.Process(bt.ToTrace()); err != nil {
			return nil, fmt.Errorf("reference for trace %d: %w", i, err)
		}
	}

	// The request plan: request k carries batchPerReq distinct traces
	// drawn by the seed; client w sends requests w, w+2, w+4, … so each
	// client's sequence is fixed whatever the timing. The digest covers
	// a fixed-length prefix of the plan.
	rng := rand.New(rand.NewSource(e.seed))
	planLen := 2*batchWarm*setupReps + int(e.seconds*1000)
	plan := make([][]int, planLen)
	for k := range plan {
		plan[k] = rng.Perm(pool)[:batchPerReq]
		for _, t := range plan[k] {
			dig.add(binary.LittleEndian.AppendUint32(nil, uint32(t)))
		}
	}
	body := func(k int) (io.Reader, int64) {
		parts := []io.Reader{bytes.NewReader([]byte(`{"traces":[`))}
		n := int64(len(`{"traces":[]}`))
		for j, t := range plan[k] {
			if j > 0 {
				parts = append(parts, bytes.NewReader([]byte(",")))
				n++
			}
			parts = append(parts, bytes.NewReader(frags[t]))
			n += int64(len(frags[t]))
		}
		parts = append(parts, bytes.NewReader([]byte(`]}`)))
		return io.MultiReader(parts...), n
	}

	// client is one closed-loop caller's private tallies, merged after
	// the run so the two callers share nothing while measuring.
	type client struct {
		l                 *lane
		next              int // next plan index
		attempted, failed int64
		failures          []string
		lat, cycLat       sampleSet
		samples           int64
		acc               accuracy
	}
	send := func(c *client, base string, measure bool, buf *bytes.Buffer) {
		k := c.next
		c.next += 2
		if k >= planLen {
			c.failed++
			c.failures = append(c.failures, "request plan exhausted")
			return
		}
		c.attempted++
		rd, n := body(k)
		sent := time.Now()
		status, err := c.l.do("POST", base+"/v1/batch", wire.ContentTypeJSON, rd, n, buf)
		done := time.Now()
		what := fmt.Sprintf("batch request %d", k)
		if err == nil && status != 200 {
			err = fmt.Errorf("%s: status %d: %s", what, status, trimBody(buf.Bytes()))
		}
		want := make([]*ptrack.Result, len(plan[k]))
		for j, t := range plan[k] {
			want[j] = refs[t]
		}
		var cycles int
		if err == nil {
			cycles, err = checkBatch(buf.Bytes(), want, what)
		}
		if err != nil {
			c.failed++
			if len(c.failures) < 10 {
				c.failures = append(c.failures, err.Error())
			}
			return
		}
		if !measure {
			return
		}
		d := ms(done.Sub(sent))
		c.lat.add(d)
		for i := 0; i < cycles; i++ {
			c.cycLat.add(d)
		}
		for j, t := range plan[k] {
			truth := recs[t].Truth
			c.acc.add(float64(want[j].Steps), float64(len(truth.Steps)), want[j].Distance, truth.Distance)
			c.samples += int64(len(recs[t].Trace.Samples))
		}
	}

	var srv *serverProc
	clients := [2]*client{{next: 0}, {next: 1}}
	var buf bytes.Buffer
	for r := 0; r < setupReps; r++ {
		srv, err = e.startServer([]string{"-rate", fmt.Sprint(batchRate), "-profile", profileFlag()})
		if err != nil {
			return nil, err
		}
		defer srv.kill()
		for _, c := range clients {
			c.l = newLane(e.guard)
		}
		if status, err := clients[0].l.get(srv.addr+"/readyz", &buf); err != nil || status != 200 {
			return nil, fmt.Errorf("readyz: status %d: %v", status, err)
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				var b bytes.Buffer
				for i := 0; i < batchWarm; i++ {
					send(c, srv.addr, false, &b)
				}
			}(c)
		}
		wg.Wait()
		o.setups = append(o.setups, since(srv.started))
		if r == setupReps-1 {
			break
		}
		if err := srv.stop(30 * time.Second); err != nil {
			return nil, err
		}
		for _, c := range clients {
			c.l.release()
		}
	}

	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	start := time.Now()
	deadline := start.Add(secs(e.seconds))
	var ends [2]time.Time
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			var b bytes.Buffer
			for time.Now().Before(deadline) {
				send(c, srv.addr, true, &b)
			}
			ends[w] = time.Now()
		}(w, c)
	}
	wg.Wait()
	end := ends[0]
	if ends[1].After(end) {
		end = ends[1]
	}
	gen1 := selfCPU()
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.l.release()
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var sc *scrape
	if e.trace {
		dbg := newLane(e.guard)
		sc, err = readScrape(dbg, srv.debugAddr)
		dbg.release()
		if err != nil {
			return nil, err
		}
	}
	if err := srv.stop(30 * time.Second); err != nil {
		return nil, err
	}

	var samples int64
	var acc accuracy
	for _, c := range clients {
		o.attempted += c.attempted
		for _, f := range c.failures {
			o.fail("%s", f)
		}
		o.failed += c.failed - int64(len(c.failures))
		o.timings["batch"].merge(&c.lat)
		o.timings["ingest"].merge(&c.lat)
		o.timings["event"].merge(&c.cycLat)
		samples += c.samples
		acc.absSteps += c.acc.absSteps
		acc.truthSteps += c.acc.truthSteps
		acc.absDist += c.acc.absDist
		acc.truthDist += c.acc.truthDist
	}
	window := end.Sub(start).Seconds()
	o.digest = dig.String()
	o.e2e["throughput_sps"] = float64(samples) / window
	o.e2e["server_cpu_ns_per_sample"] = float64(cpu1-cpu0) / float64(samples)
	o.e2e["server_rss_mb"] = rss
	o.e2e["step_error_pct"] = acc.stepPct()
	o.e2e["distance_error_pct"] = acc.distPct()
	if err := e.finish(o); err != nil {
		return nil, err
	}
	if e.trace {
		var reqs [][]*trace.Trace
		for k := 0; k < 64 && k < planLen; k++ {
			var trs []*trace.Trace
			for _, t := range plan[k] {
				trs = append(trs, recs[t].Trace)
			}
			reqs = append(reqs, trs)
		}
		var lag sampleSet
		lag.add(0) // closed loop: every request is sent when due
		in := &tracedInputs{
			rate: batchRate, batchReqs: reqs, scrape: sc, lag: &lag,
			serviceP50: o.e2e["batch_p50_ms"], ingestP50: o.e2e["ingest_p50_ms"], eventP50: o.e2e["event_p50_ms"],
			okSamples: samples, genCPU: gen1 - gen0,
		}
		if err := e.tracedRun(o, in); err != nil {
			return nil, err
		}
	}
	return o, nil
}
