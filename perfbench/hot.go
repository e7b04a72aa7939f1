package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// hot-binary: one watch syncing a buffered backlog. A single 100 Hz
// session is primed with about a minute of trace, then replayed open
// loop far faster than real time in 128-sample binary pushes on one
// connection while its SSE stream runs on the other.
const (
	hotRate  = 100.0
	hotBatch = 128
	hotSPS   = 50000.0 // offered samples per second (500× real time)
	hotPrime = 47      // priming pushes: 6016 samples ≈ 60 s of trace
	hotPartS = 1200.0  // seconds of trace per simulated part
	// hotMinGap spaces catch-up pushes after a generator stall. Sent
	// back to back, they keep the server's connection goroutine busy so
	// the session goroutine sharing its CPU cannot drain the 256-sample
	// queue in between, and the third push is refused with 429.
	hotMinGap = 500 * time.Microsecond
)

func runHot(e *env) (*outcome, error) {
	o := newOutcome()
	sps := hotSPS
	if e.small {
		sps = 20000
	}
	nWin := int(e.seconds * sps / hotBatch)
	nPush := hotPrime + nWin
	need := nPush * hotBatch
	nCan := canaryCount
	if e.small {
		nCan = 50
	}
	parts := int(math.Ceil(float64(need+nCan*int(canaryS*hotRate)) / (hotPartS * hotRate)))
	recs, err := simulateAll(parts, hotRate, func(i int) (int64, []gaitsim.Segment) {
		s := e.seed*7919 + int64(i)
		return s, roundScript(rand.New(rand.NewSource(s)), hotPartS, 300)
	})
	if err != nil {
		return nil, err
	}
	rec := concat(hotRate, recs)
	recs = nil
	samples := rec.Trace.Samples[:need]
	blocks := make([][]trace.Sample, nPush)
	for k := range blocks {
		blocks[k] = samples[k*hotBatch : (k+1)*hotBatch]
	}
	// Canaries are sliced from the recording past the streamed part, so
	// their traces are distinct from the session's.
	can, err := newCanaries(&trace.Trace{SampleRate: hotRate, Samples: rec.Trace.Samples[need:]}, nCan, refOptions(false))
	if err != nil {
		return nil, err
	}

	interval := time.Duration(float64(hotBatch) / sps * float64(time.Second))
	ops := make([]schedOp, nWin)
	for w := range ops {
		ops[w] = schedOp{at: time.Duration(w) * interval, idx: hotPrime + w}
	}

	sid := fmt.Sprintf("hot-%d", e.seed)
	var (
		srv          *serverProc
		laneA, laneB *lane
		sse          *sseStream
		buf          bytes.Buffer
		body         []byte
	)
	dig := newDigest()
	var service sampleSet // push latency from the actual send
	push := func(k int, due time.Time, record bool) bool {
		body = appendBinaryBody(body[:0], blocks[k])
		if record {
			dig.add(body)
		}
		o.attempted++
		sent := time.Now()
		status, err := laneA.do("POST", srv.addr+"/v1/sessions/"+sid+"/samples", wire.ContentTypeBinary,
			bytes.NewReader(body), int64(len(body)), &buf)
		done := time.Now()
		switch {
		case err != nil:
			o.fail("session %s push %d: %v", sid, k, err)
			return false
		case status != 200:
			o.fail("session %s push %d: status %d: %s", sid, k, status, trimBody(buf.Bytes()))
			return false
		}
		if !due.IsZero() {
			o.timings["ingest"].add(ms(done.Sub(due)))
			service.add(ms(done.Sub(sent)))
		}
		return true
	}

	for r := 0; r < setupReps; r++ {
		last := r == setupReps-1
		srv, err = e.startServer([]string{"-rate", fmt.Sprint(hotRate), "-profile", profileFlag()})
		if err != nil {
			return nil, err
		}
		defer srv.kill()
		laneA, laneB = newLane(e.guard), newLane(e.guard)
		if status, err := laneA.get(srv.addr+"/readyz", &buf); err != nil || status != 200 {
			return nil, fmt.Errorf("readyz: status %d: %v", status, err)
		}
		sse, err = subscribe(laneB, srv.addr+"/v1/sessions/"+sid+"/events")
		if err != nil {
			return nil, err
		}
		primeStart := time.Now()
		for k := 0; k < hotPrime; k++ {
			sleepUntil(primeStart.Add(time.Duration(k) * interval))
			push(k, time.Time{}, last)
		}
		o.setups = append(o.setups, since(srv.started))
		if last {
			break
		}
		if err := srv.stop(30 * time.Second); err != nil {
			return nil, err
		}
		if _, err := sse.wait(30 * time.Second); err != nil {
			return nil, err
		}
		laneA.release()
		laneB.release()
	}

	// Measured window.
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	var lag sampleSet
	due := make([]time.Time, nPush)
	var okSamples int64
	gen0 := selfCPU()
	start := time.Now()
	runSchedule(start, ops, hotMinGap, &lag, func(op schedOp, d time.Time) {
		due[op.idx] = d
		if op.idx-hotPrime == e.dropPush {
			body = appendBinaryBody(body[:0], blocks[op.idx])
			dig.add(body)
			return
		}
		if push(op.idx, d, true) {
			okSamples += hotBatch
		}
	})
	end := time.Now()
	gen1 := selfCPU()
	o.layers["loadgen.send_lag_p99_ms"], _ = lag.quantile(0.99)
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	can.run(laneA, srv.addr, o, dig)

	// End check: end the session (its trailing events flush), then
	// compare everything served with the reference.
	o.attempted++
	endSent := time.Now()
	status, err := laneA.do("DELETE", srv.addr+"/v1/sessions/"+sid, "", nil, 0, &buf)
	msgs, werr := sse.wait(30 * time.Second)
	evs, gaps, perr := parseEvents(msgs)
	ref, rerr := refStream(hotRate, refOptions(false), blocks, nil, true)
	switch {
	case err != nil || status != 204:
		o.fail("session %s end: status %d: %v", sid, status, err)
	case werr != nil || perr != nil || rerr != nil:
		o.fail("session %s end: %v", sid, errors.Join(werr, perr, rerr))
	default:
		if diff := sameEvents(evs, ref.events); diff != "" {
			o.fail("session %s: %s", sid, diff)
		}
	}

	if rerr == nil {
		eventLatencies(o.timings["event"], evs, ref, due, endSent)
	}
	var acc accuracy
	eventAccuracy(&acc, rec.Truth, evs, samples[len(samples)-1].T)

	laneA.release()
	laneB.release()
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

	window := end.Sub(start).Seconds()
	o.digest = dig.String()
	o.e2e["throughput_sps"] = float64(okSamples) / window
	o.e2e["server_cpu_ns_per_sample"] = float64(cpu1-cpu0) / float64(okSamples)
	o.e2e["server_rss_mb"] = rss
	o.e2e["step_error_pct"] = acc.stepPct()
	o.e2e["distance_error_pct"] = acc.distPct()
	if err := e.finish(o); err != nil {
		return nil, err
	}
	if e.trace {
		in := &tracedInputs{
			rate: hotRate, binary: true, streams: [][][]trace.Sample{blocks},
			canaries: can, gaps: gaps, scrape: sc, lag: &lag,
			serviceP50: p50(&service), ingestP50: o.e2e["ingest_p50_ms"], eventP50: o.e2e["event_p50_ms"],
			okSamples: okSamples, genCPU: gen1 - gen0,
		}
		if err := e.tracedRun(o, in); err != nil {
			return nil, err
		}
	}
	return o, nil
}
