package ptrack

import (
	"fmt"
	"time"

	"ptrack/internal/condition"
	"ptrack/internal/core"
	"ptrack/internal/gaitid"
	"ptrack/internal/stream"
	"ptrack/internal/stride"
)

// Profile is a user's stride-estimation profile: the arm length m of
// Eqs. (3)-(5), the leg length l and calibration factor k of Eq. (2).
type Profile struct {
	ArmLength float64 // metres, shoulder to wrist
	LegLength float64 // metres, hip to ground
	K         float64 // Eq. (2) calibration factor
}

// options collects configuration shared by every construction path in
// the package: batch (New), streaming (NewOnline), pooled batch
// (NewPool/BatchProcess) and multiplexed streaming (NewSessionHub).
type options struct {
	profile         *Profile
	offsetThreshold float64
	adaptiveDelta   bool
	conditioning    bool
	observer        *Observer

	// Hub-only knobs (see NewSessionHub); ignored elsewhere.
	queueSize          int
	onEvent            func(session string, ev Event, sc SpanContext)
	onSessionEnd       func(session string)
	sessionStore       SessionStore
	checkpointInterval time.Duration
}

// Option configures any of the package's trackers or engines.
type Option func(*options)

// WithProfile enables stride estimation with the given user profile.
func WithProfile(armLength, legLength, k float64) Option {
	return func(o *options) {
		o.profile = &Profile{ArmLength: armLength, LegLength: legLength, K: k}
	}
}

// WithTrainedProfile enables stride estimation with a profile returned by
// TrainProfile.
func WithTrainedProfile(p Profile) Option {
	return func(o *options) { o.profile = &p }
}

// WithOffsetThreshold overrides the gait-identification threshold δ
// (default 0.0325, the paper's empirical setting).
func WithOffsetThreshold(delta float64) Option {
	return func(o *options) { o.offsetThreshold = delta }
}

// WithSessionQueueSize bounds each hub session's pending-sample queue
// (default 256); a full queue drops the pushed sample with
// ErrSessionQueueFull instead of blocking. SessionHub only.
func WithSessionQueueSize(n int) Option {
	return func(o *options) { o.queueSize = n }
}

// WithEventHook registers fn to receive every classification event,
// tagged with its session ID. fn is called from per-session goroutines
// and must be safe for concurrent use; without an event hook the hub
// discards events (useful only for its side metrics). WithEventHook and
// WithTracedEventHook set the same hook, so the last one given wins.
// SessionHub only.
func WithEventHook(fn func(session string, ev Event)) Option {
	return func(o *options) {
		o.onEvent = func(session string, ev Event, _ SpanContext) { fn(session, ev) }
	}
}

// WithSessionStore makes hub session state durable: every session is
// checkpointed into s — periodically while streaming, and finally when
// it is evicted or the hub closes — and a session whose ID has a stored
// snapshot resumes from it on its first Push instead of starting fresh.
// An explicit End is terminal and deletes the snapshot. Store failures
// never fail the stream; they are counted on the observer. SessionHub
// only.
func WithSessionStore(s SessionStore) Option {
	return func(o *options) { o.sessionStore = s }
}

// WithCheckpointInterval sets how often a hub session with new samples
// since its last checkpoint is snapshotted into the session store
// (default 30 seconds; negative disables periodic checkpoints, leaving
// only the end-of-session ones). Ignored without WithSessionStore.
// SessionHub only.
func WithCheckpointInterval(d time.Duration) Option {
	return func(o *options) { o.checkpointInterval = d }
}

// WithSessionEndHook registers fn to be called once per hub session,
// after the session's trailing (flush) events have been delivered to
// the event callback — whether the session left via End, Evict, idle
// eviction or Close. The serving layer uses it to terminate per-session
// event streams only after every pending event is out. fn is called
// from per-session goroutines and must be safe for concurrent use.
// SessionHub only.
func WithSessionEndHook(fn func(session string)) Option {
	return func(o *options) { o.onSessionEnd = fn }
}

// WithTracedEventHook is WithEventHook for callbacks that also want
// the span context of the event's event.emit span — the zero
// SpanContext when the session's request was not sampled or no tracer
// is attached — so downstream fan-out (e.g. SSE delivery) can parent
// its own spans on the pipeline. Both options set the same hook, so the
// last one given wins. fn is called from per-session goroutines and
// must be safe for concurrent use. SessionHub only.
func WithTracedEventHook(fn func(session string, ev Event, sc SpanContext)) Option {
	return func(o *options) { o.onEvent = fn }
}

// WithConditioning routes every input trace or sample stream through
// the ingestion conditioner before processing. Defective recordings —
// out-of-order or duplicated samples, timestamp jitter and rate drift,
// NaN/Inf spikes, short dropouts — are repaired onto the clean
// fixed-rate grid the DSP layers assume, long gaps split the recording,
// and the repairs are tallied in Result.Conditioning (batch) or
// Online.ConditionReport (streaming). A clean trace passes through
// sample-identical.
//
// Without this option defective traces are rejected with
// ErrDefectiveTrace rather than silently mis-processed. Honoured by
// New, NewOnline, NewPool/BatchProcess and NewSessionHub.
func WithConditioning() Option {
	return func(o *options) { o.conditioning = true }
}

// WithAdaptiveThreshold replaces the fixed δ with the adaptive threshold
// (the paper's stated future work): δ follows the two-mode split of the
// recent offset distribution, falling back to the paper value whenever
// the history is not convincingly bimodal. Honoured by both the batch
// and the streaming pipelines.
func WithAdaptiveThreshold() Option {
	return func(o *options) { o.adaptiveDelta = true }
}

// resolve applies the option list and validates everything that can be
// checked without a trace — currently the profile. All constructors go
// through here, so New, NewOnline, NewPool and NewSessionHub reject the
// same bad inputs with the same sentinel (ErrInvalidProfile).
func resolve(opts []Option) (options, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.profile != nil {
		sc := o.strideConfig()
		if err := sc.Validate(); err != nil {
			return o, fmt.Errorf("ptrack: %w: %v", ErrInvalidProfile, err)
		}
	}
	return o, nil
}

func (o *options) strideConfig() stride.Config {
	return stride.Config{
		ArmLength: o.profile.ArmLength,
		LegLength: o.profile.LegLength,
		K:         o.profile.K,
	}
}

// coreConfig materialises the batch-pipeline configuration.
func (o *options) coreConfig() core.Config {
	cfg := core.Config{
		Identify:      gaitid.Config{OffsetThreshold: o.offsetThreshold},
		AdaptiveDelta: o.adaptiveDelta,
		Hooks:         o.observer,
	}
	if o.profile != nil {
		sc := o.strideConfig()
		cfg.Profile = &sc
	}
	return cfg
}

// streamConfig materialises the streaming-pipeline configuration.
func (o *options) streamConfig(sampleRate float64) stream.Config {
	cfg := stream.Config{
		SampleRate:    sampleRate,
		Identify:      gaitid.Config{OffsetThreshold: o.offsetThreshold},
		AdaptiveDelta: o.adaptiveDelta,
		Hooks:         o.observer,
	}
	if o.profile != nil {
		sc := o.strideConfig()
		cfg.Profile = &sc
	}
	if o.conditioning {
		cfg.Condition = &condition.StreamConfig{Config: o.conditionConfig()}
	}
	return cfg
}

// conditionConfig materialises the trace-conditioner configuration
// (package defaults, instrumented when an observer is attached).
func (o *options) conditionConfig() condition.Config {
	cfg := condition.Config{}
	if o.observer != nil {
		// Assign only when non-nil: a nil *Observer in a non-nil
		// interface would defeat the conditioner's nil check (the calls
		// would still be safe — hook methods tolerate nil receivers —
		// but would cost interface dispatch per defect).
		cfg.Hooks = o.observer
	}
	return cfg
}
