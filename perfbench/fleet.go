package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// fleet-durable: a large population of live wearables. 1000 sessions
// stream real-time 50 Hz data in 128-sample NDJSON pushes with
// seeded phases and fault severity 0.25, into a server that conditions
// input and checkpoints every session to a state directory. An untimed
// priming server fills the directory; each timed setup restarts the
// server and resumes every session from its snapshot.
const (
	fleetRate     = 50.0
	fleetBatch    = 128
	fleetSessions = 1000
	fleetPrime    = 4    // priming pushes per session (≈10 s of trace)
	fleetBases    = 64   // distinct base recordings the sessions slice
	fleetBaseS    = 300  // seconds per base recording
	fleetSeverity = 0.25 // gaitsim fault severity of every stream
	// The probe is one extra session replayed 200× faster than real
	// time whose SSE stream (the second connection) measures event
	// latency and served distance.
	fleetProbeSpeed = 200.0
	// Sessions checkpoint when they end (restart drains) but not
	// periodically: see README.md, "Checkpoint storms".
	fleetCheckpoint = "-1s"
)

// fleetSession is one session's place in the inputs.
type fleetSession struct {
	id     string
	base   int     // base recording
	first  int     // first chunk (index into the base's chunks)
	phase  float64 // offset of its first window push, seconds
	window int     // measured pushes
}

func runFleet(e *env) (*outcome, error) {
	o := newOutcome()
	nSess := fleetSessions
	if e.small {
		nSess = 20
	}
	period := float64(fleetBatch) / fleetRate
	maxWin := int(e.seconds/period) + 1
	perSess := fleetPrime + setupReps + maxWin // chunks per session, at most

	// Base recordings, faulted once; sessions slice them at seeded
	// chunk offsets.
	rng := rand.New(rand.NewSource(e.seed))
	recs, err := simulateAll(fleetBases, fleetRate, func(i int) (int64, []gaitsim.Segment) {
		s := e.seed*104729 + int64(i)
		return s, roundScript(rand.New(rand.NewSource(s)), fleetBaseS, 150)
	})
	if err != nil {
		return nil, err
	}
	bases := make([][]trace.Sample, fleetBases)
	for i, r := range recs {
		bases[i] = gaitsim.InjectFaults(r.Trace, gaitsim.FaultsAtSeverity(fleetSeverity, e.seed*31+int64(i))).Samples
	}
	chunksPerBase := len(bases[0]) / fleetBatch
	for _, b := range bases {
		chunksPerBase = min(chunksPerBase, len(b)/fleetBatch)
	}
	if chunksPerBase < perSess {
		return nil, fmt.Errorf("base recordings too short: %d chunks, need %d", chunksPerBase, perSess)
	}
	sessions := make([]fleetSession, nSess)
	for i := range sessions {
		s := &sessions[i]
		s.id = fmt.Sprintf("fleet-%d-%04d", e.seed, i)
		s.base = rng.Intn(fleetBases)
		s.first = rng.Intn(chunksPerBase - perSess + 1)
		s.phase = rng.Float64() * period
		for k := 0; s.phase+float64(k)*period < e.seconds; k++ {
			s.window++
		}
	}
	chunk := func(s *fleetSession, c int) []trace.Sample {
		at := (s.first + c) * fleetBatch
		return bases[s.base][at : at+fleetBatch]
	}

	// Probe session and canaries, from one extra recording: the probe
	// streams its faulted head, canaries slice its clean tail.
	probeSPS := fleetRate * fleetProbeSpeed
	nProbe := int(e.seconds * probeSPS / fleetBatch)
	nCan := canaryCount
	if e.small {
		nCan = 50
	}
	probeSecs := float64(nProbe*fleetBatch)/fleetRate*1.05 + 10
	canSecs := float64(nCan)*canaryS + 10
	precs, err := simulateAll(2, fleetRate, func(i int) (int64, []gaitsim.Segment) {
		s := e.seed*7 + 1000003*int64(i+1)
		secs := []float64{probeSecs, canSecs}[i]
		return s, roundScript(rand.New(rand.NewSource(s)), secs, 300)
	})
	if err != nil {
		return nil, err
	}
	probeRec := precs[0]
	probeSamples := gaitsim.InjectFaults(probeRec.Trace, gaitsim.FaultsAtSeverity(fleetSeverity, e.seed*37)).Samples
	if len(probeSamples) < nProbe*fleetBatch {
		return nil, fmt.Errorf("probe recording too short")
	}
	probeBlocks := make([][]trace.Sample, nProbe)
	probeLastT := make([]float64, nProbe)
	for k := range probeBlocks {
		probeBlocks[k] = probeSamples[k*fleetBatch : (k+1)*fleetBatch]
		for _, smp := range probeBlocks[k] {
			probeLastT[k] = max(probeLastT[k], smp.T)
		}
	}
	for k := 1; k < nProbe; k++ { // the matcher needs a monotone key
		probeLastT[k] = max(probeLastT[k], probeLastT[k-1])
	}
	can, err := newCanaries(precs[1].Trace, nCan, refOptions(true))
	if err != nil {
		return nil, err
	}
	probeID := fmt.Sprintf("fleet-%d-probe", e.seed)

	// The window schedule: every session's pushes at its phase and the
	// probe's pushes.
	var ops []schedOp
	var pushSess, pushChunk []int // per push op: session (-1 = probe) and chunk
	for i := range sessions {
		s := &sessions[i]
		for k := 0; k < s.window; k++ {
			ops = append(ops, schedOp{at: secs(s.phase + float64(k)*period), idx: len(pushSess)})
			pushSess = append(pushSess, i)
			pushChunk = append(pushChunk, fleetPrime+setupReps+k)
		}
	}
	probeInterval := float64(fleetBatch) / probeSPS
	for k := 0; k < nProbe; k++ {
		ops = append(ops, schedOp{at: secs(float64(k) * probeInterval), idx: len(pushSess)})
		pushSess = append(pushSess, -1)
		pushChunk = append(pushChunk, k)
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].at < ops[b].at })

	stateDir := filepath.Join(e.workDir, fmt.Sprintf("fleet-%d", os.Getpid()), "state")
	if err := os.RemoveAll(filepath.Dir(stateDir)); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(stateDir))
	args := []string{"-rate", fmt.Sprint(fleetRate), "-profile", profileFlag(), "-condition",
		"-state-dir", stateDir, "-checkpoint", fleetCheckpoint}

	var buf bytes.Buffer
	dig := newDigest()
	var service sampleSet // measured push latency from the actual send
	// pushTo sends one body on l and returns when it was sent and when
	// the reply came back, or why the push failed.
	pushTo := func(l *lane, base, id, ctype string, body []byte, b *bytes.Buffer) (sent, done time.Time, err error) {
		sent = time.Now()
		status, err := l.do("POST", base+"/v1/sessions/"+id+"/samples", ctype, bytes.NewReader(body), int64(len(body)), b)
		done = time.Now()
		switch {
		case err != nil:
			return sent, done, fmt.Errorf("session %s push: %v", id, err)
		case status != 200:
			return sent, done, fmt.Errorf("session %s push: status %d: %s", id, status, trimBody(b.Bytes()))
		}
		return sent, done, nil
	}
	// everySession pushes chunk c of every session over two lanes at
	// once (sessions split by parity), binary or NDJSON. Each lane hashes
	// its own bodies, so the digest does not depend on interleaving.
	laneDigs := [2]*digest{newDigest(), newDigest()}
	var mu sync.Mutex
	everySession := func(srv *serverProc, lanes [2]*lane, c int, ndjson bool) {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var body []byte
				var b bytes.Buffer
				for i := w; i < nSess; i += 2 {
					s := &sessions[i]
					ctype := wire.ContentTypeBinary
					if ndjson {
						body, ctype = appendNDJSONBody(body[:0], chunk(s, c)), wire.ContentTypeNDJSON
					} else {
						body = appendBinaryBody(body[:0], chunk(s, c))
					}
					laneDigs[w].add(body)
					_, _, err := pushTo(lanes[w], srv.addr, s.id, ctype, body, &b)
					mu.Lock()
					o.attempted++
					if err != nil {
						o.fail("%v", err)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	// waitSessions polls /debug/sessions (its own connection, after the
	// push lanes are released) until every session has drained want(i)
	// samples, and returns their stats by session index.
	waitSessions := func(srv *serverProc, want func(i int) int64) ([]sessionStat, error) {
		dbg := newLane(e.guard)
		defer dbg.release()
		index := make(map[string]int, nSess)
		for i := range sessions {
			index[sessions[i].id] = i
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			stats, err := readSessions(dbg, srv.debugAddr, &buf)
			if err != nil {
				return nil, err
			}
			out := make([]sessionStat, nSess)
			ready := 0
			for _, st := range stats {
				if i, ok := index[st.ID]; ok {
					out[i] = st
					if st.QueueLen == 0 && st.Samples == want(i) {
						ready++
					}
				}
			}
			if ready == nSess {
				return out, nil
			}
			if time.Now().After(deadline) {
				return out, fmt.Errorf("%d of %d sessions drained after 60s", ready, nSess)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Untimed priming server.
	srv, err := e.startServer(args)
	if err != nil {
		return nil, err
	}
	lanes := [2]*lane{newLane(e.guard), newLane(e.guard)}
	for c := 0; c < fleetPrime; c++ {
		everySession(srv, lanes, c, false)
	}
	if err := srv.stop(60 * time.Second); err != nil {
		return nil, err
	}
	lanes[0].release()
	lanes[1].release()

	// Timed setups: restart, resume every session, wait until every
	// session is restored and drained.
	var sse *sseStream
	for r := 0; r < setupReps; r++ {
		last := r == setupReps-1
		srv, err = e.startServer(args)
		if err != nil {
			return nil, err
		}
		defer srv.kill()
		lanes = [2]*lane{newLane(e.guard), newLane(e.guard)}
		everySession(srv, lanes, fleetPrime+r, true)
		lanes[0].release()
		lanes[1].release()
		stats, err := waitSessions(srv, func(int) int64 { return fleetBatch })
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", r, err)
		}
		for i, st := range stats {
			if !st.Restored {
				o.fail("session %s: not restored from its snapshot at restart %d", sessions[i].id, r)
			}
		}
		// Every setup ends with a full collection, so the window starts
		// from the same heap state on every run.
		if err := e.collect(srv); err != nil {
			return nil, err
		}
		if last {
			lanes = [2]*lane{newLane(e.guard), newLane(e.guard)}
			if status, err := lanes[0].get(srv.addr+"/readyz", &buf); err != nil || status != 200 {
				return nil, fmt.Errorf("readyz: status %d: %v", status, err)
			}
			sse, err = subscribe(lanes[1], srv.addr+"/v1/sessions/"+probeID+"/events")
			if err != nil {
				return nil, err
			}
			o.setups = append(o.setups, since(srv.started))
			break
		}
		o.setups = append(o.setups, since(srv.started))
		if err := srv.stop(60 * time.Second); err != nil {
			return nil, err
		}
	}

	// Measured window.
	laneA := lanes[0]
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	var lag sampleSet
	probeDue := make([]time.Time, nProbe)
	acked := make([]int, nSess) // window pushes each session had acknowledged
	var okSamples int64
	gen0 := selfCPU()
	start := time.Now()
	// NDJSON encoding runs ahead of the sender on its own goroutine (up
	// to encodeAhead bodies), so the push connection is not held idle
	// while the next body is built.
	const encodeAhead = 64
	bodies := make(chan []byte, encodeAhead)
	spare := make(chan []byte, encodeAhead+1)
	go func() {
		defer close(bodies)
		for _, op := range ops {
			var b []byte
			select {
			case b = <-spare:
			default:
			}
			si, c := pushSess[op.idx], pushChunk[op.idx]
			if si < 0 {
				b = appendNDJSONBody(b[:0], probeBlocks[c])
			} else {
				b = appendNDJSONBody(b[:0], chunk(&sessions[si], c))
			}
			dig.add(b)
			bodies <- b
		}
	}()
	runSchedule(start, ops, 0, &lag, func(op schedOp, d time.Time) {
		body := <-bodies
		defer func() {
			select {
			case spare <- body:
			default:
			}
		}()
		si, c := pushSess[op.idx], pushChunk[op.idx]
		id := probeID
		if si < 0 {
			probeDue[c] = d
		} else {
			id = sessions[si].id
		}
		if op.idx == e.dropPush {
			return
		}
		o.attempted++
		sent, done, err := pushTo(laneA, srv.addr, id, wire.ContentTypeNDJSON, body, &buf)
		if err != nil {
			o.fail("%v", err)
			return
		}
		o.timings["ingest"].add(ms(done.Sub(d)))
		service.add(ms(done.Sub(sent)))
		okSamples += fleetBatch
		if si >= 0 {
			acked[si]++
		}
	})
	end := time.Now()
	gen1 := selfCPU()
	o.layers["loadgen.send_lag_p99_ms"], _ = lag.quantile(0.99)
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}

	// End checks. The probe: end it, compare its events. The fleet:
	// wait until every session drained its pushes, compare steps.
	o.attempted++
	endSent := time.Now()
	status, err := laneA.do("DELETE", srv.addr+"/v1/sessions/"+probeID, "", nil, 0, &buf)
	msgs, werr := sse.wait(30 * time.Second)
	evs, gaps, perr := parseEvents(msgs)
	pref, rerr := refStream(fleetRate, refOptions(true), probeBlocks, nil, true)
	switch {
	case err != nil || status != 204:
		o.fail("session %s end: status %d: %v", probeID, status, err)
	case werr != nil || perr != nil || rerr != nil:
		o.fail("session %s end: %v", probeID, errors.Join(werr, perr, rerr))
	default:
		if diff := sameEvents(evs, pref.events); diff != "" {
			o.fail("session %s: %s", probeID, diff)
		}
	}
	lanes[0].release()
	lanes[1].release()
	// Wait for what was actually accepted; the check below compares it
	// with what the reference consumed.
	stats, err := waitSessions(srv, func(i int) int64 { return int64(fleetBatch * (1 + acked[i])) })
	if err != nil {
		return nil, fmt.Errorf("fleet end check: %w", err)
	}
	// The canary phase, with the fleet's sessions still live.
	if err := e.collect(srv); err != nil {
		return nil, err
	}
	canLane := newLane(e.guard)
	can.run(canLane, srv.addr, o, dig)
	canLane.release()
	var sc *scrape
	if e.trace {
		dbg := newLane(e.guard)
		sc, err = readScrape(dbg, srv.debugAddr)
		dbg.release()
		if err != nil {
			return nil, err
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(60 * time.Second); err != nil {
		return nil, err
	}

	// Reference: every session's chunks through an in-process tracker,
	// flushed where each shutdown drained it.
	refs, err := fleetReference(sessions, chunk)
	if err != nil {
		return nil, err
	}
	var acc accuracy
	for i := range sessions {
		s := &sessions[i]
		o.attempted++
		if want := int64(fleetBatch * (1 + s.window)); stats[i].Samples != want || stats[i].Steps != int64(refs[i].steps) {
			o.fail("session %s: served %d samples and %d steps since restart, reference %d and %d",
				s.id, stats[i].Samples, stats[i].Steps, want, refs[i].steps)
		}
		// Truth over the span the session's decided cycles cover (event
		// times count from the session's first sample).
		lo := chunk(s, 0)[0].T
		var truth float64
		for _, st := range recs[s.base].Truth.Steps {
			if st.T >= lo && st.T <= lo+refs[i].lastT {
				truth++
			}
		}
		acc.add(float64(stats[i].Steps), truth, 0, 0)
	}
	var dacc accuracy
	eventAccuracy(&dacc, probeRec.Truth, evs, probeLastT[nProbe-1])

	if rerr == nil {
		eventLatencies(o.timings["event"], evs, pref, probeDue, endSent)
	}

	window := end.Sub(start).Seconds()
	o.digest = combineDigests(laneDigs[0], laneDigs[1], dig)
	o.e2e["throughput_sps"] = float64(okSamples) / window
	o.e2e["server_cpu_ns_per_sample"] = float64(cpu1-cpu0) / float64(okSamples)
	o.e2e["server_rss_mb"] = rss
	o.e2e["step_error_pct"] = acc.stepPct()
	o.e2e["distance_error_pct"] = dacc.distPct()
	if err := e.finish(o); err != nil {
		return nil, err
	}
	if e.trace {
		var streams [][][]trace.Sample
		for i := range sessions {
			var blocks [][]trace.Sample
			for c := 0; c < fleetPrime+setupReps+sessions[i].window; c++ {
				blocks = append(blocks, chunk(&sessions[i], c))
			}
			streams = append(streams, blocks)
		}
		in := &tracedInputs{
			rate: fleetRate, conditioning: true, streams: streams,
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

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type fleetRef struct {
	steps int
	lastT float64 // cycle-end time of the last event (0 if none)
}

// fleetReference replays each session as the server saw it: priming,
// then one resume push per restart with a flush before each restart
// (graceful shutdown drains the session and checkpoints it post-flush),
// then the measured pushes. Runs on two goroutines.
func fleetReference(sessions []fleetSession, chunk func(*fleetSession, int) []trace.Sample) ([]fleetRef, error) {
	out := make([]fleetRef, len(sessions))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sessions); i += 2 {
				s := &sessions[i]
				n := fleetPrime + setupReps + s.window
				blocks := make([][]trace.Sample, n)
				flush := map[int]bool{}
				for c := 0; c < n; c++ {
					blocks[c] = chunk(s, c)
				}
				// Shutdowns follow the priming pushes and every resume
				// push but the last.
				for c := fleetPrime - 1; c < fleetPrime+setupReps-1; c++ {
					flush[c] = true
				}
				r, err := refStream(fleetRate, refOptions(true), blocks, flush, false)
				if err != nil {
					errs[w] = err
					return
				}
				out[i].steps = r.online.Steps()
				if len(r.events) > 0 {
					out[i].lastT = r.events[len(r.events)-1].T
				}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}
