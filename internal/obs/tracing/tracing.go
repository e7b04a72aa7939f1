// Package tracing is the distributed-tracing half of the observability
// layer: a stdlib-only span tracer with W3C trace-context propagation
// and OTLP/JSON export. Where internal/obs answers "how much" (metric
// aggregates), tracing answers "which request": one sampled ingest
// request decomposes into a span tree covering HTTP handling, wire
// decoding, hub enqueueing, tracker pushes, conditioning and event
// delivery, all sharing one trace ID that the client propagated (or the
// server minted).
//
// Design constraints, in order:
//
//   - The disabled path is free. Every method is a no-op on a nil
//     *Tracer and nil *Span, allocates nothing, and takes no clock
//     readings — the serving hot path (~513 ns/sample) carries tracing
//     hooks unconditionally, so "off" must cost nothing measurable.
//   - Sampling is head-based: the root span of a trace draws once
//     against the configured probability, and the decision travels in
//     the W3C sampled flag so every participant agrees. Spans that end
//     with an error status are exported even when unsampled, so failures
//     are never invisible.
//   - Export never blocks the instrumented code: exporters are handed
//     finished spans and must queue or drop (see Ring and Batcher).
//
// Durations come from Go's monotonic clock (time.Time retains the
// monotonic reading), so spans are immune to wall-clock steps; export
// timestamps are wall-clock nanoseconds as OTLP requires.
package tracing

import (
	"context"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// IsValid reports whether the ID is non-zero (the W3C invalid value).
func (t TraceID) IsValid() bool { return t != TraceID{} }

// String returns the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// IsValid reports whether the ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String returns the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// FlagSampled is the W3C trace-flags bit carrying the head-sampling
// decision.
const FlagSampled = 0x01

// SpanContext is the propagated identity of a span: what travels in the
// traceparent header and parents remote children. The zero value is
// invalid and means "no trace".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// Sampled reports the head-sampling decision carried by the flags.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// attrKind discriminates the Attr value union.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one span attribute. Construct with Str, Int, Float or Bool;
// the value is a small tagged union so attaching attributes never boxes
// through an interface.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	flt  float64
}

// Str returns a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, kind: attrString, str: value} }

// Int returns an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, kind: attrInt, num: value} }

// Float returns a floating-point attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, kind: attrFloat, flt: value} }

// Bool returns a boolean attribute.
func Bool(key string, value bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if value {
		a.num = 1
	}
	return a
}

// SpanEvent is one timestamped annotation on a span.
type SpanEvent struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// StatusCode is the span outcome, mirroring OTLP's three-valued status.
type StatusCode uint8

const (
	// StatusUnset is the default: the span completed without an explicit
	// verdict.
	StatusUnset StatusCode = iota
	// StatusOK marks explicit success.
	StatusOK
	// StatusError marks failure; spans ending with StatusError are
	// exported even when their trace was not head-sampled.
	StatusError
)

// Kind is the span's position in a request: its relationship to the
// caller. The values mirror OTLP's SpanKind enum.
type Kind uint8

const (
	// KindInternal is an in-process operation (the default).
	KindInternal Kind = 1
	// KindServer handles an inbound request.
	KindServer Kind = 2
	// KindClient issues an outbound request.
	KindClient Kind = 3
	// KindProducer hands work to an asynchronous consumer (e.g. a
	// session queue).
	KindProducer Kind = 4
	// KindConsumer processes asynchronously produced work.
	KindConsumer Kind = 5
)

// Span is one timed operation in a trace. Spans are created by a
// Tracer, mutated by at most one goroutine at a time (a mutex guards
// against stray concurrent SetStatus/End), and become immutable once
// End has run — exporters receive them only after that point. All
// methods are no-ops on a nil receiver, so call sites never branch on
// "is tracing on".
type Span struct {
	tracer *Tracer
	name   string
	kind   Kind
	sc     SpanContext
	parent SpanID

	mu      sync.Mutex
	start   time.Time // carries the monotonic reading
	end     time.Time
	attrs   []Attr
	events  []SpanEvent
	status  StatusCode
	message string
	ended   bool
}

// Context returns the span's propagable identity (zero on a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Sampled reports whether the span's trace was head-sampled. A nil span
// is never sampled, so `if span.Sampled()` gates optional per-request
// work with no further checks.
func (s *Span) Sampled() bool { return s != nil && s.sc.Sampled() }

// Name returns the operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Parent returns the parent span ID (zero for a root span).
func (s *Span) Parent() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.parent
}

// SetKind overrides the span kind (default KindInternal).
func (s *Span) SetKind(k Kind) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.kind = k
	}
	s.mu.Unlock()
}

// SetAttributes appends attributes to the span.
func (s *Span) SetAttributes(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// AddEvent attaches a timestamped annotation.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, SpanEvent{Name: name, Time: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// SetStatus records the span outcome. StatusError additionally forces
// export of this span at End even when the trace was not sampled.
func (s *Span) SetStatus(code StatusCode, message string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.status, s.message = code, message
	}
	s.mu.Unlock()
}

// End finishes the span at the current time and hands it to the
// tracer's exporter when the trace was sampled or the status is error.
// Idempotent; the span is immutable afterwards.
func (s *Span) End() { s.EndAt(time.Time{}) }

// EndAt finishes the span at the given time (zero means now). It exists
// for synthesized spans whose interval was measured externally — e.g.
// the conditioner's measured share of a tracker.push block.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	if at.Before(s.start) {
		at = s.start
	}
	s.end = at
	s.ended = true
	export := s.sc.Sampled() || s.status == StatusError
	s.mu.Unlock()
	if export && s.tracer != nil && s.tracer.exporter != nil {
		s.tracer.exporter.Export(s)
	}
}

// StartTime returns when the span started.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the monotonic span length (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// Status returns the recorded outcome.
func (s *Span) Status() (StatusCode, string) {
	if s == nil {
		return StatusUnset, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status, s.message
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Events returns a copy of the span's events.
func (s *Span) Events() []SpanEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanEvent(nil), s.events...)
}

// AttrStr returns the last string attribute with the given key ("" when
// absent) — a test convenience.
func (s *Span) AttrStr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key && s.attrs[i].kind == attrString {
			return s.attrs[i].str
		}
	}
	return ""
}

// AttrInt returns the last integer attribute with the given key (0 when
// absent).
func (s *Span) AttrInt(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key && s.attrs[i].kind == attrInt {
			return s.attrs[i].num
		}
	}
	return 0
}

// Config tunes a Tracer.
type Config struct {
	// Service names the emitting process (OTLP service.name). Default
	// "ptrack".
	Service string
	// SampleRate is the head-sampling probability for new roots, in
	// [0, 1]. Remote parents override it: their sampled flag is
	// inherited, so one decision governs the whole distributed trace.
	SampleRate float64
	// Exporter receives finished spans (sampled, or error-status). Nil
	// discards them — the tracer then only mints and propagates IDs.
	Exporter Exporter
}

// Tracer creates spans. A nil *Tracer is the documented "tracing off"
// state: Start returns (ctx, nil) without allocating, and the nil span
// absorbs every downstream call. Safe for concurrent use.
type Tracer struct {
	service   string
	threshold uint64 // sample iff rand64() < threshold
	exporter  Exporter
	rng       atomic.Uint64

	started atomic.Uint64
	sampled atomic.Uint64
}

// New returns a tracer. See Config for the knobs.
func New(cfg Config) *Tracer {
	if cfg.Service == "" {
		cfg.Service = "ptrack"
	}
	t := &Tracer{service: cfg.Service, exporter: cfg.Exporter}
	switch {
	case cfg.SampleRate >= 1:
		t.threshold = ^uint64(0)
	case cfg.SampleRate > 0:
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	t.rng.Store(uint64(time.Now().UnixNano()))
	return t
}

// Service returns the configured service name.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Started and Sampled report how many spans the tracer created and how
// many of those belonged to sampled traces.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.started.Load()
}

// Sampled reports how many created spans belonged to sampled traces.
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// rand64 draws one pseudorandom word (splitmix64 over an atomic
// counter: lock-free, allocation-free, good enough for IDs and sampling
// — this is not a cryptographic boundary).
func (t *Tracer) rand64() uint64 {
	z := t.rng.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *Tracer) newSpanID() SpanID {
	for {
		var id SpanID
		v := t.rand64()
		for i := range id {
			id[i] = byte(v >> (8 * i))
		}
		if id.IsValid() {
			return id
		}
	}
}

func (t *Tracer) newTraceID() (TraceID, bool) {
	var id TraceID
	hi, lo := t.rand64(), t.rand64()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * i))
		id[8+i] = byte(lo >> (8 * i))
	}
	if !id.IsValid() {
		id[0] = 1 // astronomically unlikely; keep the ID valid
	}
	return id, t.rand64() < t.threshold
}

// newSpan builds a span under parent (or a fresh sampled-or-not root
// when parent is invalid).
func (t *Tracer) newSpan(name string, parent SpanContext, start time.Time) *Span {
	sc := SpanContext{SpanID: t.newSpanID()}
	var parentID SpanID
	if parent.IsValid() {
		sc.TraceID = parent.TraceID
		sc.Flags = parent.Flags
		parentID = parent.SpanID
	} else {
		var sampled bool
		sc.TraceID, sampled = t.newTraceID()
		if sampled {
			sc.Flags = FlagSampled
		}
	}
	t.started.Add(1)
	if sc.Sampled() {
		t.sampled.Add(1)
	}
	if start.IsZero() {
		start = time.Now()
	}
	return &Span{tracer: t, name: name, kind: KindInternal, sc: sc, parent: parentID, start: start}
}

// Start begins a span named name, parented on the span in ctx (a fresh
// root otherwise), and returns ctx carrying the new span. On a nil
// tracer it returns ctx unchanged and a nil span, allocating nothing.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	span := t.newSpan(name, SpanFromContext(ctx).Context(), time.Time{})
	return ContextWithSpan(ctx, span), span
}

// StartRemote begins a span under a remote parent extracted from a
// carrier (e.g. a traceparent header). An invalid parent starts a fresh
// root, so callers pass whatever Extract returned without checking.
func (t *Tracer) StartRemote(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	span := t.newSpan(name, parent, time.Time{})
	return ContextWithSpan(ctx, span), span
}

// StartAt begins a span under an explicit parent context with an
// explicit start time (zero means now) and no context.Context
// plumbing — the shape the asynchronous pipeline stages use, where the
// parent arrived over a channel rather than a call chain.
func (t *Tracer) StartAt(parent SpanContext, name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, parent, start)
}

// ctxKey keys the span in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, span)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	span, _ := ctx.Value(ctxKey{}).(*Span)
	return span
}
