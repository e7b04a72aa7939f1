package ptrack

import (
	"fmt"

	"ptrack/internal/engine"
)

// SessionHub multiplexes many concurrent online streams, keyed by
// session ID — the "many users, one service" deployment shape. Each
// session runs its own streaming tracker behind a bounded queue, so
// Push never blocks on pipeline work and pushes to distinct sessions
// proceed in parallel. Sessions idle for two minutes are flushed and
// evicted. Safe for concurrent use; construct with NewSessionHub
// and Close when done.
type SessionHub struct {
	hub *engine.Hub
}

// SessionStat is one live hub session's introspection snapshot (queue
// occupancy, counters, governing trace ID, conditioner report); see
// SessionHub.SessionStats and the debug server's /debug/sessions.
type SessionStat = engine.SessionStat

// NewSessionHub builds a hub for streams sampled at sampleRate, giving
// every constructor in the package the same (sampleRate, opts...)
// shape. Register an event callback with WithEventHook (or
// WithTracedEventHook); without one, events are discarded. The options
// are those of NewOnline plus the hub knobs (WithSessionQueueSize,
// WithSessionStore, WithCheckpointInterval). Configuration errors wrap ErrInvalidProfile
// / ErrInvalidSampleRate.
func NewSessionHub(sampleRate float64, opts ...Option) (*SessionHub, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if err := validSampleRate(sampleRate); err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	hub, err := engine.NewHub(engine.HubConfig{
		Stream:             o.streamConfig(sampleRate),
		QueueSize:          o.queueSize,
		OnEvent:            o.onEvent,
		OnSessionEnd:       o.onSessionEnd,
		Hooks:              o.observer,
		Store:              o.sessionStore,
		CheckpointInterval: o.checkpointInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	return &SessionHub{hub: hub}, nil
}

// Push routes one sample to the given session, creating the session on
// first use. It never blocks on pipeline work: a full session queue
// drops the sample and returns an error wrapping ErrSessionQueueFull.
// After Close it fails with an error wrapping ErrHubClosed.
func (h *SessionHub) Push(session string, s Sample) error {
	if err := h.hub.Push(session, s); err != nil {
		return fmt.Errorf("ptrack: %w", err)
	}
	return nil
}

// PushBlock routes a block of samples to the given session under a
// single hub lock acquisition, creating the session on first use. Like
// Push it never blocks on pipeline work: samples are enqueued in order
// until the session's queue fills, and the dropped tail is reported by
// the accepted count together with an error wrapping
// ErrSessionQueueFull. Callers resume from the accepted count.
func (h *SessionHub) PushBlock(session string, samples []Sample) (int, error) {
	n, err := h.hub.PushBlock(session, samples)
	if err != nil {
		return n, fmt.Errorf("ptrack: %w", err)
	}
	return n, nil
}

// End flushes and removes one session, blocking until its trailing
// events have been delivered. Ending an unknown session is a no-op.
func (h *SessionHub) End(session string) { h.hub.End(session) }

// Evict flushes and removes one session without ending it: with a
// session store configured the final state is checkpointed, so the
// session resumes on its next push — possibly in another process, which
// is how the cluster layer migrates sessions between replicas. It
// blocks until trailing events are delivered and reports whether the
// session was live.
func (h *SessionHub) Evict(session string) bool { return h.hub.Evict(session) }

// ActiveSessions returns the number of live sessions.
func (h *SessionHub) ActiveSessions() int { return h.hub.Len() }

// SetTrace attributes the session's asynchronous pipeline work
// (tracker.push blocks, event emission) to the given sampled span context —
// typically the server-side ingest span of the request that pushed the
// session's samples. Later calls replace the context; unknown sessions
// and invalid contexts are no-ops. See docs/TRACING.md.
func (h *SessionHub) SetTrace(session string, sc SpanContext) {
	h.hub.SetSessionTrace(session, sc)
}

// SessionStats snapshots every live session's introspection state
// (queue occupancy, sample/step/event counters, governing trace ID,
// conditioner report), sorted by session ID. This is what the debug
// server's /debug/sessions endpoint serves.
func (h *SessionHub) SessionStats() []SessionStat { return h.hub.Stats() }

// Close flushes and stops every session. Pushes after Close fail with
// ErrHubClosed. Close blocks until all trailing events are delivered;
// it is idempotent.
func (h *SessionHub) Close() { h.hub.Close() }
