package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptrack/internal/condition"
	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/store"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// Hub errors. The facade wraps them, so test with errors.Is.
var (
	// ErrHubClosed is returned by Push after Close.
	ErrHubClosed = errors.New("engine: hub closed")
	// ErrQueueFull is returned by Push when the session's bounded queue
	// is full; the sample is dropped (and counted) rather than blocking
	// the caller.
	ErrQueueFull = errors.New("engine: session queue full")
)

// HubConfig tunes a session hub. StreamConfig is the template every
// session's tracker is built from; the remaining fields bound the hub.
type HubConfig struct {
	// Stream is the per-session tracker configuration (sample rate,
	// profile, thresholds, hooks). Required: its SampleRate must be set.
	Stream stream.Config
	// QueueSize bounds each session's pending-sample queue. A full queue
	// drops the pushed sample instead of blocking. Default 256.
	QueueSize int
	// IdleTimeout evicts sessions that have not seen a Push for this
	// long (their tracker is flushed first). Default 2 minutes; negative
	// disables eviction.
	IdleTimeout time.Duration
	// OnEvent receives every classification event, tagged with its
	// session ID and the span context of the event.emit span it was
	// emitted under (the zero SpanContext when the session's trace is
	// unsampled or tracing is off). This is how the serving layer's SSE
	// broker parents its sse.deliver spans on the pipeline. It is called
	// from per-session goroutines, so it must be safe for concurrent
	// use. Nil discards events (the hub is then only useful for its side
	// metrics, e.g. load testing).
	OnEvent func(session string, ev stream.Event, sc tracing.SpanContext)
	// OnSessionEnd is called once per session, from the session's
	// goroutine, after its trailing (flush) events have been delivered —
	// whether the session left via End, Evict, idle eviction or Close.
	// It lets fan-out layers (e.g. the HTTP serving layer's SSE broker)
	// terminate downstream streams only after every event is out. Must
	// be safe for concurrent use; nil disables it.
	OnSessionEnd func(session string)
	// Hooks receives the hub metrics (sessions-active gauge, queue-drop
	// counter) in addition to the per-tracker stream metrics carried by
	// Stream.Hooks. Nil disables them.
	Hooks *obs.Hooks

	// Store, when set, makes session state durable: each session is
	// checkpointed into it (periodically while streaming, and finally
	// when evicted or when the hub closes), and a session whose ID has a
	// stored snapshot resumes from it on its first Push instead of
	// starting fresh. An explicitly ended session (End) is terminal: its
	// snapshot is deleted. Store errors never fail the stream — the
	// session proceeds (fresh, or without durability) and the failure is
	// counted on Hooks. Nil disables durability.
	Store store.Store
	// CheckpointInterval is how often a session with new samples since
	// its last checkpoint is snapshotted into Store. Default 30 seconds;
	// negative disables periodic checkpoints (end-of-session checkpoints
	// still happen). Ignored without a Store.
	CheckpointInterval time.Duration

	// now stubs time.Now in tests.
	now func() time.Time
}

func (c HubConfig) withDefaults() HubConfig {
	if c.QueueSize == 0 {
		c.QueueSize = 256
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.OnEvent == nil {
		c.OnEvent = func(string, stream.Event, tracing.SpanContext) {}
	}
	return c
}

// Hub multiplexes many concurrent online (streaming) trackers, keyed by
// session ID. Each session owns a goroutine draining a bounded queue, so
// Push never blocks on DSP work and concurrent pushes to distinct
// sessions proceed in parallel. Idle sessions are flushed and evicted.
// Safe for concurrent use.
type Hub struct {
	cfg HubConfig

	mu       sync.RWMutex
	sessions map[string]*session
	closed   bool
	wg       sync.WaitGroup

	janitorStop chan struct{}
}

// session is one live stream. lastSeen is guarded by the hub lock (Push
// holds at least RLock; an atomic would allow RLock writers to race on
// it, but monotonic staleness only needs the latest of any racing Push,
// which a plain store under RLock provides on all supported platforms —
// use the mutex-held update for -race cleanliness instead).
type session struct {
	id   string
	ch   chan trace.Sample
	done chan struct{}

	lastMu   sync.Mutex
	lastSeen time.Time

	// traceCtx is the span context of the most recent sampled ingest
	// request that pushed into this session (nil until one arrives).
	// The run goroutine parents its tracker.push/event.emit spans on it;
	// ingest handlers replace it via Hub.SetSessionTrace, so a session's
	// asynchronous work is attributed to the latest sampled request
	// touching it — an explicit, documented approximation (queued blocks
	// from an earlier request may land under the newer trace).
	traceCtx atomic.Pointer[tracing.SpanContext]

	// Introspection counters for /debug/sessions, updated by the run
	// goroutine and Push (atomics: read lock-free by Hub.Stats).
	samplesIn atomic.Int64
	steps     atomic.Int64
	events    atomic.Int64

	// condReport is a periodic copy of the tracker's conditioner report
	// (Stats must not touch tracker state owned by the run goroutine).
	condMu     sync.Mutex
	condReport *condition.Report

	// terminal marks a session removed by an explicit End: its stored
	// snapshot is deleted instead of refreshed, since the caller declared
	// the stream over. Evictions and hub close leave terminal false, so
	// the final checkpoint keeps the session resumable.
	terminal atomic.Bool
	// restored records that the session resumed from a stored snapshot
	// (surfaced by Stats).
	restored atomic.Bool

	started time.Time
}

func (s *session) touch(t time.Time) {
	s.lastMu.Lock()
	if t.After(s.lastSeen) {
		s.lastSeen = t
	}
	s.lastMu.Unlock()
}

func (s *session) seen() time.Time {
	s.lastMu.Lock()
	defer s.lastMu.Unlock()
	return s.lastSeen
}

// storeCondReport snapshots the tracker's conditioner report for
// lock-free readers (Hub.Stats). The Gaps slice is dropped — it grows
// without bound and the introspection endpoint only needs the counts.
func (s *session) storeCondReport(r *condition.Report) {
	if r == nil {
		return
	}
	cp := *r
	cp.Gaps = nil
	s.condMu.Lock()
	s.condReport = &cp
	s.condMu.Unlock()
}

func (s *session) loadCondReport() *condition.Report {
	s.condMu.Lock()
	defer s.condMu.Unlock()
	if s.condReport == nil {
		return nil
	}
	cp := *s.condReport
	return &cp
}

// NewHub validates the template configuration and starts the eviction
// janitor. Close the hub to release it.
func NewHub(cfg HubConfig) (*Hub, error) {
	cfg = cfg.withDefaults()
	// Build one throwaway tracker so a bad template fails here, not on
	// the first Push of every session.
	if _, err := stream.New(cfg.Stream); err != nil {
		return nil, err
	}
	h := &Hub{
		cfg:         cfg,
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
	}
	if cfg.IdleTimeout > 0 {
		interval := cfg.IdleTimeout / 4
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		h.wg.Add(1)
		go h.janitor(interval)
	}
	return h, nil
}

// Push routes one sample to the given session, creating it on first use.
// It never blocks on pipeline work: when the session's queue is full the
// sample is dropped, the drop is counted, and ErrQueueFull is returned.
func (h *Hub) Push(id string, s trace.Sample) error {
	one := [1]trace.Sample{s}
	_, err := h.PushBlock(id, one[:])
	return err
}

// PushBlock routes a block of samples to the given session under a
// single lock acquisition, creating the session on first use. Samples
// are enqueued in order until the session's queue fills; it returns how
// many were accepted, with ErrQueueFull when the tail was dropped (and
// counted). Callers resume from the accepted count, mirroring Push's
// drop-don't-block contract.
func (h *Hub) PushBlock(id string, samples []trace.Sample) (int, error) {
	if len(samples) == 0 {
		return 0, nil
	}
	h.mu.RLock()
	sess := h.sessions[id]
	if sess != nil {
		// Fast path: existing session, shared lock only.
		n, err := h.enqueueBlock(sess, samples)
		h.mu.RUnlock()
		return n, err
	}
	closed := h.closed
	h.mu.RUnlock()
	if closed {
		return 0, ErrHubClosed
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, ErrHubClosed
	}
	sess = h.sessions[id]
	if sess == nil {
		sess = h.startSessionLocked(id)
	}
	n, err := h.enqueueBlock(sess, samples)
	h.mu.Unlock()
	return n, err
}

// enqueueBlock performs the non-blocking queue sends: one touch, then
// in-order sends until the queue rejects. Callers hold the hub lock
// (read or write), which is what makes the sends race-free against
// Close/evict closing the channel: closers hold the write lock.
func (h *Hub) enqueueBlock(sess *session, samples []trace.Sample) (int, error) {
	sess.touch(h.cfg.now())
	for i, s := range samples {
		select {
		case sess.ch <- s:
		default:
			h.cfg.Hooks.SessionSamplesDropped(len(samples) - i)
			return i, fmt.Errorf("%w: session %q", ErrQueueFull, sess.id)
		}
	}
	return len(samples), nil
}

// startSessionLocked creates the session and its draining goroutine.
func (h *Hub) startSessionLocked(id string) *session {
	sess := &session{
		id:       id,
		ch:       make(chan trace.Sample, h.cfg.QueueSize),
		done:     make(chan struct{}),
		lastSeen: h.cfg.now(),
		started:  h.cfg.now(),
	}
	h.sessions[id] = sess
	h.cfg.Hooks.SessionOpened()
	h.wg.Add(1)
	go h.run(sess)
	return sess
}

// run drains one session until its queue is closed, then flushes.
func (h *Hub) run(sess *session) {
	defer h.wg.Done()
	defer close(sess.done)
	tk, err := stream.New(h.cfg.Stream)
	if err != nil {
		// NewHub validated the identical configuration.
		panic("engine: session tracker construction failed after validation: " + err.Error())
	}
	tracer := h.cfg.Hooks.Tracer()

	// Resume from a stored snapshot, if the session has one. A failed
	// restore (corrupt blob, format revision, config drift) is counted
	// and the session starts fresh — Restore is all-or-nothing, so the
	// tracker is untouched by the failure.
	if h.cfg.Store != nil {
		switch blob, err := h.cfg.Store.Load(sess.id); {
		case err == nil:
			if err := tk.Restore(blob); err != nil {
				h.cfg.Hooks.SessionCheckpoint("error")
			} else {
				h.cfg.Hooks.SessionCheckpoint("restore")
				sess.restored.Store(true)
				sess.steps.Store(int64(tk.Steps()))
			}
		case errors.Is(err, store.ErrNotFound):
			// First sight of this session: nothing to resume.
		default:
			h.cfg.Hooks.SessionCheckpoint("error")
		}
	}

	// checkpoint snapshots the tracker into the store, recycling one
	// buffer across the session's lifetime. sinceCkpt gates it so an idle
	// session is not re-snapshotted every tick.
	var snapBuf []byte
	sinceCkpt := 0
	checkpoint := func() {
		if h.cfg.Store == nil || sinceCkpt == 0 {
			return
		}
		sinceCkpt = 0
		snapBuf = tk.Snapshot(snapBuf[:0])
		if err := h.cfg.Store.Save(sess.id, snapBuf); err != nil {
			h.cfg.Hooks.SessionCheckpoint("error")
			return
		}
		h.cfg.Hooks.SessionCheckpoint("save")
	}
	var tickC <-chan time.Time
	if h.cfg.Store != nil && h.cfg.CheckpointInterval > 0 {
		ticker := time.NewTicker(h.cfg.CheckpointInterval)
		defer ticker.Stop()
		tickC = ticker.C
	}

	// deliver fans events out to the configured callback, minting one
	// event.emit span per event under a sampled tracker.push parent.
	deliver := func(evs []stream.Event, parent tracing.SpanContext) {
		if len(evs) == 0 {
			return
		}
		sess.events.Add(int64(len(evs)))
		for _, ev := range evs {
			if !parent.Sampled() {
				h.cfg.OnEvent(sess.id, ev, tracing.SpanContext{})
				continue
			}
			span := tracer.StartAt(parent, "event.emit", time.Time{})
			span.SetKind(tracing.KindProducer)
			span.SetAttributes(
				tracing.Str("session", sess.id),
				tracing.Str("event.label", ev.Label.String()),
				tracing.Int("event.steps_added", int64(ev.StepsAdded)),
				tracing.Int("event.total_steps", int64(ev.TotalSteps)),
			)
			h.cfg.OnEvent(sess.id, ev, span.Context())
			span.End()
		}
	}

	// startPush opens a tracker.push span around one tracker call when
	// the session's governing trace is sampled (nil otherwise); endPush
	// ends it under a "condition" child carrying the conditioner time
	// measured since cond0, and returns the context its events parent on.
	startPush := func(samples int) *tracing.Span {
		scp := sess.traceCtx.Load()
		if tracer == nil || scp == nil || !scp.Sampled() {
			return nil
		}
		span := tracer.StartAt(*scp, "tracker.push", time.Time{})
		span.SetKind(tracing.KindConsumer)
		span.SetAttributes(tracing.Str("session", sess.id), tracing.Int("samples", int64(samples)))
		return span
	}
	endPush := func(span *tracing.Span, cond0 time.Duration) tracing.SpanContext {
		if span == nil {
			return tracing.SpanContext{}
		}
		if d := tk.ConditionTime() - cond0; d > 0 {
			start := span.StartTime()
			cond := tracer.StartAt(span.Context(), "condition", start)
			cond.SetAttributes(tracing.Str("session", sess.id))
			cond.EndAt(start.Add(d))
		}
		span.End()
		return span.Context()
	}

	// The run loop greedily drains whatever is buffered in the queue (up
	// to one wire frame's worth) and hands it to PushBlock in one call,
	// amortizing the tracker's per-push bookkeeping across the backlog.
	// Both slices are reused for the session's lifetime; events are
	// delivered before the next block overwrites the buffer.
	block := make([]trace.Sample, 0, stream.BlockSamples)
	var evs []stream.Event
	condEvery := 0
	for open := true; open; {
		select {
		case s, ok := <-sess.ch:
			if !ok {
				open = false
				continue
			}
			block = append(block[:0], s)
		case <-tickC:
			// Periodic checkpoint, between blocks (the run goroutine owns
			// the tracker, so this is the required sample boundary).
			checkpoint()
			continue
		}
	gather:
		for len(block) < stream.BlockSamples {
			select {
			case s, ok := <-sess.ch:
				if !ok {
					open = false
					break gather
				}
				block = append(block, s)
			default:
				break gather
			}
		}

		span, cond0 := startPush(len(block)), tk.ConditionTime()
		evs = tk.PushBlock(block, evs[:0])
		parent := endPush(span, cond0)
		sess.samplesIn.Add(int64(len(block)))
		sess.steps.Store(int64(tk.Steps()))
		sinceCkpt += len(block)
		if condEvery += len(block); condEvery >= 32 {
			condEvery = 0
			sess.storeCondReport(tk.ConditionReport())
		}
		deliver(evs, parent)
	}
	// The final flush is traced like a block of zero samples.
	span := startPush(0)
	evs = tk.Flush()
	parent := endPush(span, tk.ConditionTime())
	sess.steps.Store(int64(tk.Steps()))
	sess.storeCondReport(tk.ConditionReport())
	deliver(evs, parent)
	if h.cfg.Store != nil {
		if sess.terminal.Load() {
			// The caller declared the stream over: durable state for the
			// ID would resurrect a finished session, so drop it.
			if err := h.cfg.Store.Delete(sess.id); err != nil {
				h.cfg.Hooks.SessionCheckpoint("error")
			} else {
				h.cfg.Hooks.SessionCheckpoint("delete")
			}
		} else {
			// Final checkpoint, taken after Flush so the snapshot agrees
			// with what was delivered: a restored session continues past
			// the flushed trailing events instead of re-emitting them.
			sinceCkpt++
			checkpoint()
		}
	}
	if h.cfg.OnSessionEnd != nil {
		h.cfg.OnSessionEnd(sess.id)
	}
	h.cfg.Hooks.SessionClosed()
}

// removeLocked detaches a session and closes its queue; the session
// goroutine then flushes and exits. Callers hold the write lock.
func (h *Hub) removeLocked(sess *session) {
	delete(h.sessions, sess.id)
	close(sess.ch)
}

// janitor periodically evicts sessions idle for longer than IdleTimeout.
func (h *Hub) janitor(interval time.Duration) {
	defer h.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-h.janitorStop:
			return
		case <-t.C:
			h.evictIdle()
		}
	}
}

func (h *Hub) evictIdle() {
	deadline := h.cfg.now().Add(-h.cfg.IdleTimeout)
	h.mu.Lock()
	for _, s := range h.sessions {
		if s.seen().Before(deadline) {
			h.removeLocked(s)
		}
	}
	h.mu.Unlock()
}

// End flushes and removes one session, waiting for its trailing events
// to be delivered. End is terminal: with a Store configured the
// session's snapshot is deleted, unlike eviction or Close which
// checkpoint it for later resumption. Ending an unknown session is a
// no-op — except that with a Store it also deletes any dormant
// snapshot, so a client can end a session the hub has already evicted.
func (h *Hub) End(id string) {
	h.mu.Lock()
	sess := h.sessions[id]
	if sess != nil {
		sess.terminal.Store(true)
		h.removeLocked(sess)
	}
	h.mu.Unlock()
	if sess != nil {
		<-sess.done
		return
	}
	if h.cfg.Store != nil {
		if err := h.cfg.Store.Delete(id); err != nil {
			h.cfg.Hooks.SessionCheckpoint("error")
		} else {
			h.cfg.Hooks.SessionCheckpoint("delete")
		}
	}
}

// Evict flushes and removes one session WITHOUT marking it terminal,
// waiting for its trailing events to be delivered. With a Store
// configured the session's final post-flush state is checkpointed, so
// it resumes — here after an idle gap, or on another replica when the
// store routes elsewhere. This is the handoff primitive cluster
// migration is built on. Evicting an unknown session reports false.
func (h *Hub) Evict(id string) bool {
	h.mu.Lock()
	sess := h.sessions[id]
	if sess != nil {
		h.removeLocked(sess)
	}
	h.mu.Unlock()
	if sess == nil {
		return false
	}
	<-sess.done
	return true
}

// Len returns the number of live sessions.
func (h *Hub) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sessions)
}

// SetSessionTrace records sc as the trace context governing the
// session's asynchronous pipeline work (tracker.push blocks, event
// emission).
// The serving layer calls it once per sampled ingest request, after the
// request's first accepted push; later sampled requests replace it.
// Unknown sessions and invalid contexts are no-ops.
func (h *Hub) SetSessionTrace(id string, sc tracing.SpanContext) {
	if !sc.IsValid() {
		return
	}
	h.mu.RLock()
	sess := h.sessions[id]
	h.mu.RUnlock()
	if sess != nil {
		sess.traceCtx.Store(&sc)
	}
}

// SessionStat is one live session's introspection snapshot, served by
// GET /debug/sessions.
type SessionStat struct {
	// ID is the session key.
	ID string `json:"session"`
	// QueueLen and QueueCap describe the bounded pending-sample queue at
	// snapshot time.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// AgeSeconds is time since the session was created; IdleSeconds is
	// time since its last accepted Push.
	AgeSeconds  float64 `json:"age_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
	// Samples is the count of samples drained by the session's tracker;
	// Steps its cumulative credited steps; Events its emitted events.
	Samples int64 `json:"samples"`
	Steps   int64 `json:"steps"`
	Events  int64 `json:"events"`
	// Restored reports that the session resumed from a stored snapshot
	// rather than starting fresh.
	Restored bool `json:"restored,omitempty"`
	// TraceID identifies the sampled trace currently governing the
	// session's async spans ("" when untraced).
	TraceID string `json:"trace_id,omitempty"`
	// Condition is a recent copy of the conditioner's defect report
	// (counts only, no gap list; nil with conditioning disabled).
	Condition *condition.Report `json:"condition,omitempty"`
}

// Stats snapshots every live session, sorted by ID. Counters lag the
// run goroutines by at most a few samples (they are updated with
// atomics, the conditioner report every ~32 samples).
func (h *Hub) Stats() []SessionStat {
	now := h.cfg.now()
	h.mu.RLock()
	sessions := make([]*session, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.RUnlock()
	out := make([]SessionStat, 0, len(sessions))
	for _, s := range sessions {
		st := SessionStat{
			ID:          s.id,
			QueueLen:    len(s.ch),
			QueueCap:    cap(s.ch),
			AgeSeconds:  now.Sub(s.started).Seconds(),
			IdleSeconds: now.Sub(s.seen()).Seconds(),
			Samples:     s.samplesIn.Load(),
			Steps:       s.steps.Load(),
			Events:      s.events.Load(),
			Restored:    s.restored.Load(),
			Condition:   s.loadCondReport(),
		}
		if scp := s.traceCtx.Load(); scp != nil {
			st.TraceID = scp.TraceID.String()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close flushes and stops every session and the janitor. Pushes after
// Close fail with ErrHubClosed. Close blocks until all trailing events
// have been delivered.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	for _, s := range h.sessions {
		h.removeLocked(s)
	}
	h.mu.Unlock()
	close(h.janitorStop)
	h.wg.Wait()
}
