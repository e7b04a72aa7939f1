package obs

import (
	"context"
	"log/slog"
	"runtime"
	"time"

	"ptrack/internal/buildinfo"
	"ptrack/internal/obs/tracing"
)

// Stage identifies one pipeline stage for the per-stage timers.
type Stage uint8

// Pipeline stages, in Fig. 2 order.
const (
	StageSegment Stage = iota
	StageProject
	StageIdentify
	StageStride
	numStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageSegment:
		return "segment"
	case StageProject:
		return "project"
	case StageIdentify:
		return "identify"
	case StageStride:
		return "stride"
	default:
		return "unknown"
	}
}

// cycleLabelNames maps gaitid.Label values (1..3) to metric label
// values. Index 0 catches out-of-range labels. The ordering mirrors the
// gaitid constants; internal/core has a test pinning the two together.
var cycleLabelNames = [...]string{"unknown", "interference", "walking", "stepping"}

// Histogram bucket layouts. Offsets cluster around the paper's δ=0.0325
// decision threshold, so the buckets resolve that region finely; C is a
// signed correlation-like statistic of order 1; stream latency is the
// cycle-plus-margin reporting delay (≈1.5 s at normal cadence).
var (
	OffsetBuckets  = []float64{0.005, 0.01, 0.02, 0.0325, 0.05, 0.08, 0.12, 0.2, 0.5}
	CBuckets       = []float64{-2, -1, -0.5, -0.2, 0, 0.2, 0.5, 1, 2, 5}
	LatencyBuckets = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5, 10}
	// BatchBuckets resolve per-trace wall time in the batch engine: a 60 s
	// trace costs ~1-2 ms, so the layout spans sub-millisecond to seconds.
	BatchBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 5}
	// GapBuckets resolve timing gaps found by the trace conditioner, from
	// a couple of missing samples at wearable rates up to multi-second
	// holes that split the trace (the bridge/split boundary defaults to
	// 2 s, so the layout straddles it).
	GapBuckets = []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 15}
	// HTTPBuckets resolve serving-layer request latency: sample pushes
	// are sub-millisecond, batch requests run whole traces and reach
	// into seconds.
	HTTPBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 5}
)

// Serving-layer label values, pre-registered so the hook methods stay
// allocation- and lock-free. Routes mirror the internal/server mux;
// unknown strings fall into "other".
var (
	httpRouteNames = []string{
		"samples", "events", "end_session", "batch",
		"healthz", "readyz", "version", "state", "cluster", "other",
	}
	httpRejectReasons = []string{
		"rate_limit", "overload", "body_too_large", "draining",
		"decode", "backpressure", "shard_unreachable", "shard_moved", "other",
	}
)

// Conditioner label values, pre-registered so the hook methods stay
// allocation- and lock-free. They mirror the kind/stage strings emitted
// by internal/condition; unknown strings fall into "other".
var (
	conditionDefectKinds = []string{
		"out_of_order", "duplicate", "non_finite", "gap_bridged",
		"gap_split", "clipped_run", "rate_drift", "missing_rate",
		"rejected", "other",
	}
	conditionStageNames = []string{"inspect", "order", "rate", "resample", "other"}
)

// Checkpoint operation label values, pre-registered so the hook method
// stays allocation- and lock-free. They mirror the session-store
// operations performed by the engine hub; unknown strings fall into
// "other".
var checkpointOpNames = []string{"save", "restore", "delete", "error", "other"}

// Hooks is the instrumentation surface the batch (internal/core) and
// streaming (internal/stream) pipelines report into. All methods are
// safe on a nil receiver — a nil *Hooks is the documented "observability
// off" state and adds no work to the hot path — and safe for concurrent
// use, so one Hooks may be shared by many trackers.
type Hooks struct {
	stageSeconds [numStages]*Counter
	stageCalls   [numStages]*Counter
	cycles       [len(cycleLabelNames)]*Counter
	steps        *Counter
	traces       *Counter
	offsetHist   *Histogram
	cHist        *Histogram

	samplesIn   *Counter
	samplesDrop *Counter
	bufferLen   *Gauge
	latencyHist *Histogram

	poolInflight   *Gauge
	batchTraceHist *Histogram
	sessionsActive *Gauge
	sessionDrops   *Counter
	checkpointOps  map[string]*Counter

	conditionDefects map[string]*Counter
	conditionStage   map[string]*Counter
	conditionGapHist *Histogram

	httpRequests map[string]*Counter
	httpLatency  map[string]*Histogram
	httpRejected map[string]*Counter
	eventStreams *Gauge
	eventsDrop   *Counter

	logger *slog.Logger
	tracer *tracing.Tracer
}

// NewHooks registers the full PTrack metric set in reg and returns hooks
// feeding it. Registration is idempotent, so several Hooks may share a
// registry (their updates then accumulate into the same series).
func NewHooks(reg *Registry) *Hooks {
	h := &Hooks{}
	for s := Stage(0); s < numStages; s++ {
		h.stageSeconds[s] = reg.Counter("ptrack_stage_seconds_total",
			"Cumulative wall time spent in each pipeline stage.", "stage", s.String())
		h.stageCalls[s] = reg.Counter("ptrack_stage_calls_total",
			"Invocations of each pipeline stage.", "stage", s.String())
	}
	for i := 1; i < len(cycleLabelNames); i++ {
		h.cycles[i] = reg.Counter("ptrack_cycles_total",
			"Gait-cycle candidates classified, by label.", "label", cycleLabelNames[i])
	}
	h.cycles[0] = reg.Counter("ptrack_cycles_total",
		"Gait-cycle candidates classified, by label.", "label", cycleLabelNames[0])
	h.steps = reg.Counter("ptrack_steps_total", "Steps credited by the pipeline.")
	h.traces = reg.Counter("ptrack_traces_total", "Traces processed by the batch pipeline.")
	h.offsetHist = reg.Histogram("ptrack_cycle_offset",
		"Eq. (1) offset metric per classified cycle.", OffsetBuckets)
	h.cHist = reg.Histogram("ptrack_cycle_c",
		"C statistic (vertical/anterior correlation) per classified cycle.", CBuckets)
	h.samplesIn = reg.Counter("ptrack_stream_samples_total",
		"Samples ingested by streaming trackers.")
	h.samplesDrop = reg.Counter("ptrack_stream_dropped_samples_total",
		"Buffered samples evicted by streaming-tracker compaction.")
	h.bufferLen = reg.Gauge("ptrack_stream_buffer_samples",
		"Current streaming-tracker sliding-window occupancy, in samples.")
	h.latencyHist = reg.Histogram("ptrack_stream_event_latency_seconds",
		"Delay from gait-cycle end to event emission.", LatencyBuckets)
	h.poolInflight = reg.Gauge("ptrack_pool_inflight_traces",
		"Traces currently being processed by batch-engine workers.")
	h.batchTraceHist = reg.Histogram("ptrack_batch_trace_seconds",
		"Per-trace wall time inside the batch engine.", BatchBuckets)
	h.sessionsActive = reg.Gauge("ptrack_sessions_active",
		"Streaming sessions currently held by session hubs.")
	h.sessionDrops = reg.Counter("ptrack_session_dropped_samples_total",
		"Samples rejected because a session's bounded queue was full.")
	h.checkpointOps = make(map[string]*Counter, len(checkpointOpNames))
	for _, op := range checkpointOpNames {
		h.checkpointOps[op] = reg.Counter("ptrack_session_checkpoints_total",
			"Session-store operations performed by hub checkpointing, by op.", "op", op)
	}
	h.conditionDefects = make(map[string]*Counter, len(conditionDefectKinds))
	for _, kind := range conditionDefectKinds {
		h.conditionDefects[kind] = reg.Counter("ptrack_condition_defects_total",
			"Trace defects found by the ingestion conditioner, by type.", "type", kind)
	}
	h.conditionStage = make(map[string]*Counter, len(conditionStageNames))
	for _, stage := range conditionStageNames {
		h.conditionStage[stage] = reg.Counter("ptrack_condition_stage_seconds_total",
			"Cumulative wall time spent in each conditioning stage.", "stage", stage)
	}
	h.conditionGapHist = reg.Histogram("ptrack_condition_gap_seconds",
		"Timing gaps found by the ingestion conditioner (bridged or split).", GapBuckets)
	h.httpRequests = make(map[string]*Counter, len(httpRouteNames))
	h.httpLatency = make(map[string]*Histogram, len(httpRouteNames))
	for _, route := range httpRouteNames {
		h.httpRequests[route] = reg.Counter("ptrack_http_requests_total",
			"Requests served by the HTTP serving layer, by route.", "route", route)
		h.httpLatency[route] = reg.Histogram("ptrack_http_request_seconds",
			"Serving-layer request latency, by route.", HTTPBuckets, "route", route)
	}
	h.httpRejected = make(map[string]*Counter, len(httpRejectReasons))
	for _, reason := range httpRejectReasons {
		h.httpRejected[reason] = reg.Counter("ptrack_http_rejected_total",
			"Requests refused by the serving layer's admission machinery, by reason.", "reason", reason)
	}
	h.eventStreams = reg.Gauge("ptrack_http_event_streams_active",
		"SSE event streams currently attached to the serving layer.")
	h.eventsDrop = reg.Counter("ptrack_http_events_dropped_total",
		"Events dropped because an SSE subscriber's fan-out buffer was full.")
	version, revision := buildinfo.Version()
	reg.Gauge("ptrack_build_info",
		"Build metadata of the running binary; the value is always 1.",
		"version", version, "revision", revision, "go_version", runtime.Version()).Set(1)
	return h
}

// WithCycleLogger attaches a structured logger; every classified cycle
// then emits one slog record at Debug level. Returns h for chaining.
func (h *Hooks) WithCycleLogger(l *slog.Logger) *Hooks {
	if h != nil {
		h.logger = l
	}
	return h
}

// WithTracer attaches a span tracer; the serving layer and session hubs
// sharing these hooks then decompose each request into child spans (see
// docs/TRACING.md). Returns h for chaining. Attach before the hooks are
// shared — the field is read without synchronization on the hot path.
func (h *Hooks) WithTracer(t *tracing.Tracer) *Hooks {
	if h != nil {
		h.tracer = t
	}
	return h
}

// Tracer returns the attached span tracer. Nil hooks — and hooks with
// no tracer attached — return a nil *tracing.Tracer, which is itself
// the safe "tracing off" no-op, so callers use the result unchecked.
func (h *Hooks) Tracer() *tracing.Tracer {
	if h == nil {
		return nil
	}
	return h.tracer
}

// StageDone records one completed stage invocation.
func (h *Hooks) StageDone(s Stage, d time.Duration) {
	if h == nil || s >= numStages {
		return
	}
	h.stageSeconds[s].Add(d.Seconds())
	h.stageCalls[s].Inc()
}

// Cycle records one classified gait-cycle candidate: its label counter,
// the offset and C histograms (offset only when the offset metric was
// computable), and — when a cycle logger is attached — one structured
// log record.
func (h *Hooks) Cycle(label int, t, offset, c float64, offsetOK bool, stepsAdded int) {
	if h == nil {
		return
	}
	if label < 0 || label >= len(h.cycles) {
		label = 0
	}
	h.cycles[label].Inc()
	if offsetOK {
		h.offsetHist.Observe(offset)
		h.cHist.Observe(c)
	}
	if h.logger != nil && h.logger.Enabled(context.Background(), slog.LevelDebug) {
		h.logger.LogAttrs(context.Background(), slog.LevelDebug, "cycle",
			slog.Float64("t", t),
			slog.String("label", cycleLabelNames[label]),
			slog.Float64("offset", offset),
			slog.Float64("c", c),
			slog.Bool("offset_ok", offsetOK),
			slog.Int("steps_added", stepsAdded),
		)
	}
}

// AddSteps credits n counted steps.
func (h *Hooks) AddSteps(n int) {
	if h == nil || n <= 0 {
		return
	}
	h.steps.Add(float64(n))
}

// TraceProcessed records one batch pipeline run.
func (h *Hooks) TraceProcessed() {
	if h == nil {
		return
	}
	h.traces.Inc()
}

// SamplesIngested records n streaming samples and the resulting buffer
// occupancy.
func (h *Hooks) SamplesIngested(n, buffered int) {
	if h == nil || n <= 0 {
		return
	}
	h.samplesIn.Add(float64(n))
	h.bufferLen.Set(float64(buffered))
}

// SamplesDropped records n samples evicted by buffer compaction.
func (h *Hooks) SamplesDropped(n int) {
	if h == nil || n <= 0 {
		return
	}
	h.samplesDrop.Add(float64(n))
}

// PoolTraceStart marks one trace entering a batch-engine worker.
func (h *Hooks) PoolTraceStart() {
	if h == nil {
		return
	}
	h.poolInflight.Add(1)
}

// PoolTraceDone marks one trace leaving a batch-engine worker, recording
// its wall time.
func (h *Hooks) PoolTraceDone(seconds float64) {
	if h == nil {
		return
	}
	h.poolInflight.Add(-1)
	if seconds < 0 {
		seconds = 0
	}
	h.batchTraceHist.Observe(seconds)
}

// SessionOpened records one streaming session entering a hub.
func (h *Hooks) SessionOpened() {
	if h == nil {
		return
	}
	h.sessionsActive.Add(1)
}

// SessionClosed records one streaming session leaving a hub (explicit
// end or idle eviction).
func (h *Hooks) SessionClosed() {
	if h == nil {
		return
	}
	h.sessionsActive.Add(-1)
}

// SessionSamplesDropped records n samples rejected by a full per-session
// queue.
func (h *Hooks) SessionSamplesDropped(n int) {
	if h == nil || n <= 0 {
		return
	}
	h.sessionDrops.Add(float64(n))
}

// SessionCheckpoint records one session-store operation ("save",
// "restore", "delete", or "error" for any failed operation) performed
// by a hub's durable-state machinery.
func (h *Hooks) SessionCheckpoint(op string) {
	if h == nil {
		return
	}
	c, ok := h.checkpointOps[op]
	if !ok {
		c = h.checkpointOps["other"]
	}
	c.Add(1)
}

// ConditionDefect records n trace defects of the given kind found by the
// ingestion conditioner. Implements the condition.Hooks interface.
func (h *Hooks) ConditionDefect(kind string, n int) {
	if h == nil || n <= 0 {
		return
	}
	c, ok := h.conditionDefects[kind]
	if !ok {
		c = h.conditionDefects["other"]
	}
	c.Add(float64(n))
}

// ConditionGap records one timing gap (bridged or split) found by the
// ingestion conditioner.
func (h *Hooks) ConditionGap(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	h.conditionGapHist.Observe(seconds)
}

// ConditionStageDone records wall time spent in one conditioning stage.
func (h *Hooks) ConditionStageDone(stage string, seconds float64) {
	if h == nil {
		return
	}
	c, ok := h.conditionStage[stage]
	if !ok {
		c = h.conditionStage["other"]
	}
	if seconds < 0 {
		seconds = 0
	}
	c.Add(seconds)
}

// HTTPRequest records one served request on the given route with its
// wall time. Routes outside the pre-registered set land in "other".
func (h *Hooks) HTTPRequest(route string, seconds float64) {
	if h == nil {
		return
	}
	c, ok := h.httpRequests[route]
	if !ok {
		route = "other"
		c = h.httpRequests[route]
	}
	c.Inc()
	if seconds < 0 {
		seconds = 0
	}
	h.httpLatency[route].Observe(seconds)
}

// RequestRejected records one request refused by the serving layer's
// admission machinery (rate limit, overload gate, drain, body cap …).
func (h *Hooks) RequestRejected(reason string) {
	if h == nil {
		return
	}
	c, ok := h.httpRejected[reason]
	if !ok {
		c = h.httpRejected["other"]
	}
	c.Inc()
}

// EventStreamOpened records one SSE subscriber attaching.
func (h *Hooks) EventStreamOpened() {
	if h == nil {
		return
	}
	h.eventStreams.Add(1)
}

// EventStreamClosed records one SSE subscriber detaching.
func (h *Hooks) EventStreamClosed() {
	if h == nil {
		return
	}
	h.eventStreams.Add(-1)
}

// EventsDropped records n events lost to a full SSE fan-out buffer.
func (h *Hooks) EventsDropped(n int) {
	if h == nil || n <= 0 {
		return
	}
	h.eventsDrop.Add(float64(n))
}

// EventEmitted records the cycle-end-to-emission latency of one
// streaming event.
func (h *Hooks) EventEmitted(latencyS float64) {
	if h == nil {
		return
	}
	if latencyS < 0 {
		latencyS = 0
	}
	h.latencyHist.Observe(latencyS)
}
