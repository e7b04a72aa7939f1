package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ptrack"
	"ptrack/internal/condition"
	"ptrack/internal/obs"
	"ptrack/internal/server"
	"ptrack/internal/store"
	"ptrack/internal/stream"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// layerMetrics are the per-layer metrics a -trace 1 run prints. Each
// comes from spans the traced replay records around calls into one
// layer's public functions, from the server's /metrics and /debug/vars
// scraped after the end-to-end window, or from the generator itself.
// README.md maps each onto the end-to-end metric it should move.
var layerMetrics = []metricDef{
	{"wire.ndjson_decode_ns_per_sample", "ns", "lower"},
	{"wire.binary_decode_ns_per_sample", "ns", "lower"},
	{"wire.event_encode_ns_per_event", "ns", "lower"},
	{"wire.batch_decode_ms", "ms", "lower"},
	{"wire.request_bytes_per_sample", "B", "lower"},
	{"server.push_handler_us", "us", "lower"},
	{"server.push_self_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.batch_handler_ms", "ms", "lower"},
	{"server.rejected_total", "count", "lower"},
	{"server.sse_gap_events_total", "count", "lower"},
	{"hub.enqueue_ns_per_sample", "ns", "lower"},
	{"hub.queue_wait_us", "us", "lower"},
	{"hub.queue_full_total", "count", "lower"},
	{"hub.checkpoints_total", "count", "lower"},
	{"hub.checkpoint_errors_total", "count", "lower"},
	{"pool.process_ms", "ms", "lower"},
	{"stream.push_block_ns_per_sample", "ns", "lower"},
	{"stream.events_per_ksample", "count", "higher"},
	{"stream.footprint_kb_per_session", "KiB", "lower"},
	{"condition.ns_per_sample", "ns", "lower"},
	{"condition.repaired_per_ksample", "count", "higher"},
	{"statecodec.snapshot_us", "us", "lower"},
	{"statecodec.snapshot_kb", "KiB", "lower"},
	{"statecodec.restore_us", "us", "lower"},
	{"store.save_us", "us", "lower"},
	{"store.load_us", "us", "lower"},
	{"core.ns_per_sample", "ns", "lower"},
	{"core.segment_ms", "ms", "lower"},
	{"core.project_ms", "ms", "lower"},
	{"core.identify_ms", "ms", "lower"},
	{"core.stride_ms", "ms", "lower"},
	{"runtime.gc_cycles_per_ksample", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"runtime.heap_mb", "MiB", "lower"},
	{"loadgen.send_lag_p99_ms", "ms", "lower"},
	{"loadgen.cpu_ns_per_sample", "ns", "lower"},
	{"loadgen.peak_conns", "count", "lower"},
	{"recon.ingest_unattributed_us", "us", "lower"},
	{"recon.event_unattributed_us", "us", "lower"},
	{"tail.ingest_p99_ms", "ms", "lower"},
	{"tail.event_p99_ms", "ms", "lower"},
	{"tail.batch_p99_ms", "ms", "lower"},
}

// tracedInputs is what a workload hands the traced run: the same
// seeded inputs its end-to-end run sent, plus what that run observed.
type tracedInputs struct {
	rate         float64
	binary       bool // push framing (streaming workloads)
	conditioning bool
	streams      [][][]trace.Sample // per session, its pushes in order
	canaries     *canaries
	batchReqs    [][]*trace.Trace // batch-json requests

	gaps       int64
	scrape     *scrape
	lag        *sampleSet
	serviceP50 float64 // client-observed request p50 from actual send, ms
	ingestP50  float64
	eventP50   float64
	okSamples  int64
	genCPU     time.Duration
}

// span is one recorded call into a layer: name, start and end relative
// to the recorder's epoch, the span that caused it, the request it
// belongs to, and how many units of work it covered.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Units  int    `json:"units"`
}

// recorder keeps spans in memory; they are written out once at the end.
type recorder struct {
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(i, units int) {
	r.spans[i].End = int64(time.Since(r.epoch))
	r.spans[i].Units = units
}

// per collects, for one span name, the duration per unit of every span
// (ns per unit) or per span (ns), as an exact sample set.
func (r *recorder) per(name string, perUnit bool) *sampleSet {
	s := &sampleSet{}
	for _, sp := range r.spans {
		if sp.Name != name || sp.Units == 0 {
			continue
		}
		d := float64(sp.End - sp.Start)
		if perUnit {
			d /= float64(sp.Units)
		}
		s.add(d)
	}
	return s
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func p50(s *sampleSet) float64 {
	if s.n() == 0 {
		return 0
	}
	v, _ := s.quantile(0.5)
	return v
}

// Replay sizes: enough calls for stable medians, small enough that the
// traced run adds seconds, not minutes.
const (
	tracedMaxBlocks   = 2000
	tracedMaxCanaries = 200
)

// tracedRun replays the run's inputs in-process through each layer's
// public functions and fills o.layers.
func (e *env) tracedRun(o *outcome, in *tracedInputs) error {
	rec := &recorder{epoch: time.Now()}
	L := o.layers
	off := func(name, why string) {
		L[name] = 0
		o.unavailable[name] = why
	}
	streaming := len(in.streams) > 0
	ct := wire.ContentTypeNDJSON
	if in.binary {
		ct = wire.ContentTypeBinary
	}

	// Cap the replay: whole sessions, up to tracedMaxBlocks pushes.
	var streams [][][]trace.Sample
	total := 0
	for _, s := range in.streams {
		if total >= tracedMaxBlocks {
			break
		}
		if total+len(s) > tracedMaxBlocks {
			s = s[:tracedMaxBlocks-total]
		}
		streams = append(streams, s)
		total += len(s)
	}

	// --- wire: request bodies and their decode.
	var bodies [][][]byte
	var bodyBytes, bodySamples int
	for _, s := range streams {
		var bs [][]byte
		for _, blk := range s {
			var b []byte
			if in.binary {
				b = appendBinaryBody(nil, blk)
			} else {
				b = appendNDJSONBody(nil, blk)
			}
			bs = append(bs, b)
			bodyBytes += len(b)
			bodySamples += len(blk)
		}
		bodies = append(bodies, bs)
	}
	req := 0
	decodeSpan := "wire.decode"
	var dst []trace.Sample
	for _, bs := range bodies {
		for _, b := range bs {
			sp := rec.begin(decodeSpan, -1, req)
			dec := wire.NewDecoder(bytes.NewReader(b), ct)
			n := 0
			for {
				var err error
				dst, err = dec.NextBlock(dst[:0], ptrack.BlockSamples)
				n += len(dst)
				if err != nil {
					break
				}
			}
			rec.end(sp, n)
			req++
		}
	}
	decodeNs := p50(rec.per(decodeSpan, true))
	decodeReqUs := p50(rec.per(decodeSpan, false)) / 1e3
	switch {
	case !streaming:
		off("wire.ndjson_decode_ns_per_sample", "no sample pushes on this workload")
		off("wire.binary_decode_ns_per_sample", "no sample pushes on this workload")
		off("wire.request_bytes_per_sample", "no sample pushes on this workload")
	case in.binary:
		L["wire.binary_decode_ns_per_sample"] = decodeNs
		off("wire.ndjson_decode_ns_per_sample", "pushes are binary on this workload")
	default:
		L["wire.ndjson_decode_ns_per_sample"] = decodeNs
		off("wire.binary_decode_ns_per_sample", "pushes are NDJSON on this workload")
	}
	if streaming {
		L["wire.request_bytes_per_sample"] = float64(bodyBytes) / float64(bodySamples)
	}

	// --- stream and condition: the trackers alone, synchronously,
	// block by block as a hub session drains them (≤64 samples a call).
	scfg := stream.Config{SampleRate: in.rate, Profile: &stride.Config{
		ArmLength: userProfile.ArmLength, LegLength: userProfile.LegLength, K: userProfile.K}}
	if in.conditioning {
		scfg.Condition = &condition.StreamConfig{}
	}
	var allEvents []stream.Event
	var footprint, snapKB sampleSet
	var streamed int
	stateDir := filepath.Join(e.workDir, fmt.Sprintf("traced-%d", os.Getpid()))
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)
	dirStore, err := store.NewDir(stateDir)
	if err != nil {
		return err
	}
	for si, s := range streams {
		tk, err := stream.New(scfg)
		if err != nil {
			return err
		}
		root := rec.begin("replay.stream", -1, si)
		var evs []stream.Event
		for _, blk := range s {
			for lo := 0; lo < len(blk); lo += ptrack.BlockSamples {
				hi := min(lo+ptrack.BlockSamples, len(blk))
				sp := rec.begin("stream.push_block", root, si)
				evs = tk.PushBlock(blk[lo:hi], evs[:0])
				rec.end(sp, hi-lo)
				for _, ev := range evs {
					ev.Strides = append([]float64(nil), ev.Strides...)
					allEvents = append(allEvents, ev)
				}
			}
			streamed += len(blk)
		}
		rec.end(root, len(s))
		// The tracker built here must be the one the server runs.
		ref, err := refStream(in.rate, refOptions(in.conditioning), s, nil, false)
		if err != nil {
			return err
		}
		if ref.online.Steps() != tk.Steps() {
			return fmt.Errorf("traced tracker counted %d steps, the facade's %d: configurations differ", tk.Steps(), ref.online.Steps())
		}
		footprint.add(float64(tk.FootprintBytes()) / 1024)
		if in.conditioning { // durable sessions: snapshot, save, load, restore
			sp := rec.begin("statecodec.snapshot", root, si)
			blob := tk.Snapshot(nil)
			rec.end(sp, 1)
			snapKB.add(float64(len(blob)) / 1024)
			id := fmt.Sprintf("traced-%d", si)
			sp = rec.begin("store.save", root, si)
			err := dirStore.Save(id, blob)
			rec.end(sp, 1)
			if err != nil {
				return err
			}
			sp = rec.begin("store.load", root, si)
			got, err := dirStore.Load(id)
			rec.end(sp, 1)
			if err != nil {
				return err
			}
			fresh, err := stream.New(scfg)
			if err != nil {
				return err
			}
			sp = rec.begin("statecodec.restore", root, si)
			err = fresh.Restore(got)
			rec.end(sp, 1)
			if err != nil {
				return err
			}
		}
	}
	if streaming {
		L["stream.push_block_ns_per_sample"] = p50(rec.per("stream.push_block", true))
		L["stream.events_per_ksample"] = 1000 * float64(len(allEvents)) / float64(streamed)
		L["stream.footprint_kb_per_session"] = median(footprint.vals)
	} else {
		off("stream.push_block_ns_per_sample", "the batch workload bypasses the streaming tracker")
		off("stream.events_per_ksample", "the batch workload bypasses the streaming tracker")
		off("stream.footprint_kb_per_session", "the batch workload bypasses the streaming tracker")
	}
	if in.conditioning {
		L["statecodec.snapshot_us"] = p50(rec.per("statecodec.snapshot", false)) / 1e3
		L["statecodec.snapshot_kb"] = median(snapKB.vals)
		L["statecodec.restore_us"] = p50(rec.per("statecodec.restore", false)) / 1e3
		L["store.save_us"] = p50(rec.per("store.save", false)) / 1e3
		L["store.load_us"] = p50(rec.per("store.load", false)) / 1e3
	} else {
		for _, n := range []string{"statecodec.snapshot_us", "statecodec.snapshot_kb", "statecodec.restore_us", "store.save_us", "store.load_us"} {
			off(n, "sessions are not durable on this workload")
		}
	}

	// The conditioner alone.
	if in.conditioning {
		var defects, input int
		for si, s := range streams {
			cs, err := condition.NewStreamer(condition.StreamConfig{Config: condition.Config{NominalRate: in.rate}})
			if err != nil {
				return err
			}
			for _, blk := range s {
				sp := rec.begin("condition.push", -1, si)
				cs.PushBlock(blk)
				rec.end(sp, len(blk))
			}
			cs.Flush()
			r := cs.Report()
			defects += r.Defects()
			input += r.Input
		}
		L["condition.ns_per_sample"] = p50(rec.per("condition.push", true))
		L["condition.repaired_per_ksample"] = 1000 * float64(defects) / float64(input)
	} else {
		off("condition.ns_per_sample", "input is not conditioned on this workload")
		off("condition.repaired_per_ksample", "input is not conditioned on this workload")
	}

	// Event encoding, per event.
	if len(allEvents) > 0 {
		var buf []byte
		for i, ev := range allEvents {
			sp := rec.begin("wire.event_encode", -1, i)
			buf = wire.AppendEvent(buf[:0], ev)
			rec.end(sp, 1)
		}
		L["wire.event_encode_ns_per_event"] = p50(rec.per("wire.event_encode", false))
	} else {
		off("wire.event_encode_ns_per_event", "no step events are streamed on this workload")
	}

	// --- engine: hub enqueue and queue wait. Each push is enqueued as
	// the server does it (PushBlock per decoded 64-sample block), then
	// the replay waits for the session to drain, so the wait measured is
	// the hub's own hand-off, not a backlog.
	if streaming {
		opts := refOptions(in.conditioning)
		var hooked hookTimes
		hub, err := ptrack.NewSessionHub(in.rate, append(opts, ptrack.WithEventHook(func(string, ptrack.Event) {
			hooked.add(time.Now())
		}))...)
		if err != nil {
			return err
		}
		var waits sampleSet
		for si, s := range streams {
			id := fmt.Sprintf("traced-%d", si)
			pushed := int64(0)
			root := rec.begin("replay.hub", -1, si)
			for _, blk := range s {
				before := hooked.len()
				sp := rec.begin("hub.enqueue", root, si)
				n := 0
				for lo := 0; lo < len(blk); lo += ptrack.BlockSamples {
					hi := min(lo+ptrack.BlockSamples, len(blk))
					k, err := hub.PushBlock(id, blk[lo:hi])
					n += k
					if err != nil {
						rec.end(sp, n)
						hub.Close()
						return fmt.Errorf("traced hub push: %w", err)
					}
				}
				rec.end(sp, n)
				ret := time.Now()
				pushed += int64(len(blk))
				waitDrained(hub, id, pushed)
				for _, at := range hooked.since(before) {
					waits.add(float64(at.Sub(ret)))
				}
			}
			hub.End(id)
			rec.end(root, len(s))
		}
		hub.Close()
		L["hub.enqueue_ns_per_sample"] = p50(rec.per("hub.enqueue", true))
		// Queue wait: hand-off to the event hook minus the tracker's own
		// busy time for a block.
		busyUs := p50(rec.per("stream.push_block", false)) / 1e3
		L["hub.queue_wait_us"] = max(0, p50(&waits)/1e3-busyUs)
	} else {
		off("hub.enqueue_ns_per_sample", "the batch workload bypasses the session hub")
		off("hub.queue_wait_us", "the batch workload bypasses the session hub")
	}

	// --- server: the real handler on in-memory requests.
	srv, err := server.New(server.Config{
		SampleRate: in.rate, Options: refOptions(false), Conditioning: in.conditioning, MaxInFlight: -1,
	})
	if err != nil {
		return err
	}
	h := srv.Handler()
	if streaming {
		// Round-robin over a few sessions; each push waits until its
		// session's queue is empty, as paced end-to-end traffic leaves it.
		const lanes = 16
		for si, bs := range bodies {
			for bi, b := range bs {
				id := fmt.Sprintf("traced-%d-%d", si, bi%lanes)
				if err := waitQueueEmpty(srv.SessionsHandler(), id); err != nil {
					return err
				}
				r := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/samples", bytes.NewReader(b))
				r.Header.Set("Content-Type", ct)
				w := httptest.NewRecorder()
				sp := rec.begin("server.push_handler", -1, bi)
				h.ServeHTTP(w, r)
				rec.end(sp, 1)
				if w.Code != http.StatusOK {
					return fmt.Errorf("traced push to %s answered %d: %s", id, w.Code, trimBody(w.Body.Bytes()))
				}
			}
		}
		handlerUs := p50(rec.per("server.push_handler", false)) / 1e3
		enqueueUs := p50(rec.per("hub.enqueue", false)) / 1e3
		L["server.push_handler_us"] = handlerUs
		L["server.push_self_us"] = handlerUs - decodeReqUs - enqueueUs
		L["server.transport_us"] = in.serviceP50*1e3 - handlerUs
		L["recon.ingest_unattributed_us"] = in.ingestP50*1e3 -
			(decodeReqUs + enqueueUs + L["server.push_self_us"] + L["server.transport_us"])
		// The event path adds the hand-off to the tracker, the tracker's
		// work on the push that carried the cycle's last sample, and the
		// event's encoding; what remains is the wait for later pushes to
		// supply the cycle's margin, broker fan-out, the SSE write and
		// the client's read.
		blockUs := p50(rec.per("stream.push_block", false)) / 1e3 * float64(len(streams[0][0])) / float64(ptrack.BlockSamples)
		L["recon.event_unattributed_us"] = in.eventP50*1e3 - (in.serviceP50*1e3 +
			L["hub.queue_wait_us"] + blockUs + L["wire.event_encode_ns_per_event"]/1e3)
	} else {
		off("server.push_handler_us", "no sample pushes on this workload")
		off("server.push_self_us", "no sample pushes on this workload")
	}

	// Batch path: the canaries (streaming workloads) or the requests.
	var batches [][]*trace.Trace
	if in.canaries != nil {
		for i, tr := range in.canaries.traces {
			if i >= tracedMaxCanaries {
				break
			}
			batches = append(batches, []*trace.Trace{tr})
		}
	}
	batches = append(batches, in.batchReqs...)
	reg := obs.NewRegistry()
	hooks := obs.NewHooks(reg)
	pool, err := ptrack.NewPool(0, append(refOptions(in.conditioning), ptrack.WithObserver(hooks))...)
	if err != nil {
		return err
	}
	tk, err := ptrack.New(refOptions(in.conditioning)...)
	if err != nil {
		return err
	}
	for i, trs := range batches {
		var breq wire.BatchRequest
		n := 0
		for _, tr := range trs {
			breq.Traces = append(breq.Traces, wire.FromTrace(tr))
			n += len(tr.Samples)
		}
		body, err := json.Marshal(breq)
		if err != nil {
			return err
		}
		root := rec.begin("replay.batch", -1, i)
		sp := rec.begin("wire.batch_decode", root, i)
		var dec wire.BatchRequest
		err = json.Unmarshal(body, &dec)
		rec.end(sp, n)
		if err != nil {
			return err
		}
		traces := make([]*trace.Trace, len(dec.Traces))
		for j := range dec.Traces {
			traces[j] = dec.Traces[j].ToTrace()
		}
		sp = rec.begin("pool.process", root, i)
		if _, err := pool.Process(context.Background(), traces); err != nil {
			return err
		}
		rec.end(sp, n)
		for _, tr := range traces {
			sp = rec.begin("core.process", root, i)
			if _, err := tk.Process(tr); err != nil {
				return err
			}
			rec.end(sp, len(tr.Samples))
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		r.Header.Set("Content-Type", wire.ContentTypeJSON)
		w := httptest.NewRecorder()
		sp = rec.begin("server.batch_handler", root, i)
		h.ServeHTTP(w, r)
		rec.end(sp, 1)
		rec.end(root, n)
		if w.Code != http.StatusOK {
			return fmt.Errorf("traced batch request %d answered %d: %s", i, w.Code, trimBody(w.Body.Bytes()))
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	L["wire.batch_decode_ms"] = p50(rec.per("wire.batch_decode", false)) / 1e6
	L["pool.process_ms"] = p50(rec.per("pool.process", false)) / 1e6
	L["server.batch_handler_ms"] = p50(rec.per("server.batch_handler", false)) / 1e6
	L["core.ns_per_sample"] = p50(rec.per("core.process", true))
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		return err
	}
	stages := map[string]float64{}
	parseProm(&prom, stages)
	for _, st := range []string{"segment", "project", "identify", "stride"} {
		L["core."+st+"_ms"] = 1e3 * stages[`ptrack_stage_seconds_total{stage="`+st+`"}`] / float64(len(batches))
	}
	if !streaming {
		L["server.transport_us"] = in.serviceP50*1e3 - L["server.batch_handler_ms"]*1e3
		L["recon.ingest_unattributed_us"] = in.ingestP50*1e3 - (L["server.batch_handler_ms"]*1e3 + L["server.transport_us"])
		L["recon.event_unattributed_us"] = in.eventP50*1e3 - (L["server.batch_handler_ms"]*1e3 + L["server.transport_us"])
	}

	// --- counts from the server under test, and the generator.
	sc := in.scrape
	L["server.rejected_total"] = sc.prom["ptrack_http_rejected_total"]
	L["server.sse_gap_events_total"] = float64(in.gaps)
	L["hub.queue_full_total"] = sc.prom["ptrack_session_dropped_samples_total"]
	L["hub.checkpoints_total"] = sc.prom["ptrack_session_checkpoints_total"] - sc.prom[`ptrack_session_checkpoints_total{op="error"}`]
	L["hub.checkpoint_errors_total"] = sc.prom[`ptrack_session_checkpoints_total{op="error"}`]
	L["runtime.gc_cycles_per_ksample"] = 1000 * sc.numGC / float64(in.okSamples)
	L["runtime.gc_pause_ms_total"] = sc.pauseNs / 1e6
	L["runtime.heap_mb"] = sc.heapMB
	L["loadgen.send_lag_p99_ms"], _ = in.lag.quantile(0.99)
	L["loadgen.cpu_ns_per_sample"] = float64(in.genCPU) / float64(in.okSamples)

	path := filepath.Join(e.workDir, fmt.Sprintf("spans-%d-%d.jsonl", e.seed, os.Getpid()))
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "traced run: %d spans written to %s\n", len(rec.spans), path)
	return nil
}

// hookTimes records event-hook arrival times from the hub's session
// goroutines.
type hookTimes struct {
	mu    sync.Mutex
	times []time.Time
}

func (h *hookTimes) add(t time.Time) {
	h.mu.Lock()
	h.times = append(h.times, t)
	h.mu.Unlock()
}

func (h *hookTimes) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.times)
}

func (h *hookTimes) since(i int) []time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]time.Time(nil), h.times[i:]...)
}

// waitDrained spins until the hub session has taken want samples off
// its queue.
func waitDrained(hub *ptrack.SessionHub, id string, want int64) {
	for {
		for _, st := range hub.SessionStats() {
			if st.ID == id && st.Samples >= want && st.QueueLen == 0 {
				return
			}
		}
		runtime.Gosched()
	}
}

// waitQueueEmpty polls an in-process server's session introspection
// until the session's queue is empty (or the session does not exist).
func waitQueueEmpty(h http.Handler, id string) error {
	for {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/sessions", nil))
		var out struct {
			Sessions []sessionStat `json:"sessions"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			return fmt.Errorf("traced session introspection: %w", err)
		}
		busy := false
		for _, st := range out.Sessions {
			busy = busy || (st.ID == id && st.QueueLen > 0)
		}
		if !busy {
			return nil
		}
		runtime.Gosched()
	}
}
