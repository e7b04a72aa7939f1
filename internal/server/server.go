// Package server is the network serving layer: it exposes the engine —
// the session hub for live streams and the worker pool for whole
// traces — over plain stdlib HTTP, with the admission machinery a
// public-facing deployment needs in front of the DSP:
//
//	POST   /v1/sessions/{id}/samples   push samples (NDJSON or binary frames)
//	GET    /v1/sessions/{id}/events    SSE stream of classification events
//	DELETE /v1/sessions/{id}           end a session, flushing trailing events
//	POST   /v1/batch                   run whole traces through the pool
//	GET    /healthz                    liveness (always 200 while the process runs)
//	GET    /readyz                     readiness (503 once draining)
//	GET    /version                    build information
//
// Robustness model: per-client token-bucket rate limiting and a bounded
// in-flight admission gate answer overload with 429 + Retry-After
// before any pipeline work happens; request bodies are size-capped;
// writes carry per-request deadlines (extended per event on SSE
// streams so long-lived subscriptions survive). Shutdown stops
// admitting, waits for in-flight ingestion, drains and flushes every
// hub session, terminates event streams after their trailing events,
// then closes the listener. Everything is instrumented through
// internal/obs. See docs/SERVING.md for the full contract.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptrack"
	"ptrack/internal/buildinfo"
	"ptrack/internal/cluster"
	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/wire"
)

// Limits that are policy rather than configuration: request paths that
// accept unbounded client input all stop at fixed points.
const (
	// maxSessionIDLen bounds session identifiers; IDs are map keys and
	// metric cardinality, not payload.
	maxSessionIDLen = 128
	// maxBatchTraces bounds one POST /v1/batch request.
	maxBatchTraces = 256
)

// Config tunes a Server. The zero value plus a SampleRate is a working
// development server; production deployments set the admission knobs.
type Config struct {
	// SampleRate is the hub's sample rate in Hz. Required.
	SampleRate float64
	// Options are facade options applied to both the session hub and
	// the batch pool (profile, thresholds, observer, hub bounds …).
	Options []ptrack.Option
	// Conditioning routes all ingested data through the trace
	// conditioner (WithConditioning). When off, non-finite samples are
	// rejected at the door with 400 instead of reaching the DSP.
	Conditioning bool
	// Workers is the batch pool's parallelism (<= 0 selects GOMAXPROCS).
	Workers int
	// Store, when set, makes session state durable: the hub checkpoints
	// sessions into it and resumes them from it, so a restarted server
	// picks up mid-stream sessions (monotonic step totals) instead of
	// resetting them. ptrack-serve wires a directory store here via its
	// -state-dir flag. In cluster mode this is the replica's LOCAL
	// store: the hub actually checkpoints through the cluster-routed
	// wrapper, which replicates into the local stores of the session's
	// ring owners via the /v1/state protocol. Nil with Cluster set
	// falls back to an in-memory local store (migration and failover
	// work; restart durability needs a dir store).
	Store ptrack.SessionStore
	// CheckpointInterval is the hub's periodic checkpoint cadence
	// (default 30 s; negative leaves only end-of-session checkpoints).
	// Ignored without Store.
	CheckpointInterval time.Duration

	// Cluster, when set, makes this server one replica of a sharded
	// deployment: session requests are proxied to their ring owner,
	// the local store is served to peers at /v1/state, the ring is
	// introspectable and swappable at /v1/cluster/ring, and a ring
	// change migrates live sessions to their new owners via snapshot
	// handoff. See docs/CLUSTER.md.
	Cluster *cluster.Cluster

	// MaxInFlight bounds concurrently admitted ingestion requests
	// (sample pushes and batch runs); excess requests get 429 +
	// Retry-After. Default 64; negative disables the gate.
	MaxInFlight int
	// RatePerSec is the per-client token-bucket refill rate, in
	// requests per second. 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket depth (default 2×RatePerSec, min 1).
	Burst int
	// MaxBodyBytes caps request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// EventBuffer is each SSE subscriber's fan-out buffer, in events; a
	// full buffer drops events for that subscriber only. Default 256.
	EventBuffer int
	// WriteTimeout is the per-write deadline on responses (default
	// 30 s). SSE streams extend it per event rather than per stream.
	WriteTimeout time.Duration

	// Hooks receives serving-layer metrics (plus the engine and
	// pipeline metrics carried through Options' observer). Nil disables.
	Hooks *obs.Hooks
	// Logger receives structured request-rejection and lifecycle
	// records. Nil discards them.
	Logger *slog.Logger
	// Version is the /version banner. Default: buildinfo for
	// "ptrack-serve".
	Version string

	// now stubs time.Now in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Version == "" {
		c.Version = buildinfo.String("ptrack-serve")
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the serving layer over one session hub and one batch pool.
// Construct with New, expose via Handler (e.g. under httptest) or
// Start, and always Shutdown — it owns the hub's drain.
type Server struct {
	cfg     Config
	hub     *ptrack.SessionHub
	pool    *ptrack.Pool
	broker  *broker
	limiter *rateLimiter
	gate    chan struct{}
	mux     *http.ServeMux

	// Cluster mode only: the replica's local snapshot store (what
	// /v1/state serves), the ring-routed wrapper the hub checkpoints
	// through, and the client carrying proxied requests.
	localStore   ptrack.SessionStore
	clusterStore ptrack.SessionStore
	proxyClient  *http.Client

	draining atomic.Bool
	inflight sync.WaitGroup // admitted ingestion requests

	httpSrv *http.Server
	ln      net.Listener
	downMu  sync.Mutex
	down    bool
}

// New builds a serving layer. Configuration errors wrap the facade
// sentinels (ErrInvalidProfile, ErrInvalidSampleRate).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		broker:  newBroker(cfg.EventBuffer, cfg.Hooks),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.now),
	}
	if cfg.MaxInFlight > 0 {
		s.gate = make(chan struct{}, cfg.MaxInFlight)
	}

	opts := append([]ptrack.Option(nil), cfg.Options...)
	if cfg.Conditioning {
		opts = append(opts, ptrack.WithConditioning())
	}
	hubStore := cfg.Store
	if cfg.Cluster != nil {
		s.localStore = cfg.Store
		if s.localStore == nil {
			// Migration and failover need somewhere to park snapshots
			// even when the operator configured no durable store.
			s.localStore = ptrack.NewMemSessionStore()
		}
		s.clusterStore = cfg.Cluster.Store(s.localStore)
		hubStore = s.clusterStore
		// No overall timeout: proxied SSE streams are long-lived, and
		// cancellation comes from the inbound request's context.
		s.proxyClient = &http.Client{}
	}
	hubOpts := append(append([]ptrack.Option(nil), opts...),
		ptrack.WithSessionEndHook(s.broker.endSession),
		ptrack.WithTracedEventHook(s.onEvent))
	if hubStore != nil {
		hubOpts = append(hubOpts, ptrack.WithSessionStore(hubStore),
			ptrack.WithCheckpointInterval(cfg.CheckpointInterval))
	}
	hub, err := ptrack.NewSessionHub(cfg.SampleRate, hubOpts...)
	if err != nil {
		return nil, err
	}
	pool, err := ptrack.NewPool(cfg.Workers, opts...)
	if err != nil {
		hub.Close()
		return nil, err
	}
	s.hub, s.pool = hub, pool

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sessions/{id}/samples", s.instrument("samples", s.handleSamples))
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.instrument("events", s.handleEvents))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("end_session", s.handleEndSession))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /version", s.instrument("version", s.handleVersion))
	if cfg.Cluster != nil {
		stateH := cluster.NewStateHandler(s.localStore, cfg.MaxBodyBytes)
		state := s.instrument("state", stateH.ServeHTTP)
		s.mux.HandleFunc("GET /v1/state", state)
		s.mux.HandleFunc("GET /v1/state/{id}", state)
		s.mux.HandleFunc("PUT /v1/state/{id}", state)
		s.mux.HandleFunc("DELETE /v1/state/{id}", state)
		s.mux.HandleFunc("GET /v1/cluster/ring", s.instrument("cluster", s.handleRingGet))
		s.mux.HandleFunc("POST /v1/cluster/ring", s.instrument("cluster", s.handleRingSet))
	}
	return s, nil
}

// onEvent encodes one hub event and fans it out, forwarding the
// event.emit span context so SSE delivery can continue the trace. Runs
// on the session's goroutine; the encode allocates one payload shared
// by all subscribers.
func (s *Server) onEvent(session string, ev ptrack.Event, sc ptrack.SpanContext) {
	s.broker.publish(session, wire.AppendEvent(nil, ev), sc)
}

// Handler returns the server's HTTP handler — the full API without a
// listener, ready for httptest or composition under another mux.
func (s *Server) Handler() http.Handler { return s.mux }

// SessionsHandler serves the hub's live per-session introspection
// (queue depth, last-push age, totals, conditioner report, governing
// trace) as JSON — mount it on the debug server as /debug/sessions.
func (s *Server) SessionsHandler() http.Handler { return ptrack.SessionsHandler(s.hub) }

// Start listens on addr (use port 0 for ephemeral) and serves in the
// background until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.cfg.Logger.Error("serve", "err", err)
		}
	}()
	s.cfg.Logger.Info("serving", "addr", ln.Addr().String())
	return nil
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: stop admitting (readyz and all /v1 routes
// answer 503 + Retry-After), wait for in-flight ingestion, flush every
// hub session and deliver its trailing events, terminate event streams,
// then close the listener. ctx bounds the wait for in-flight requests
// and connection teardown; the hub flush itself always completes so no
// accepted sample is silently lost. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.downMu.Lock()
	already := s.down
	s.down = true
	s.downMu.Unlock()
	if already {
		return nil
	}
	s.draining.Store(true)
	s.cfg.Logger.Info("draining")

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.hub.Close()    // drain queues, flush trackers, fan out trailing events
	s.broker.close() // end subscriber streams that had no live session

	if s.httpSrv != nil {
		if serr := s.httpSrv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	s.cfg.Logger.Info("drained")
	return err
}

// --- middleware ------------------------------------------------------

// spanNames maps instrumented routes onto their server-span names; meta
// routes (healthz, readyz, version) are absent and stay untraced —
// load-balancer probes would otherwise dominate the sampled stream.
var spanNames = map[string]string{
	"samples":     "http.ingest",
	"batch":       "http.batch",
	"events":      "http.events",
	"end_session": "http.end_session",
}

// instrument wraps a handler with the request counter and latency
// histogram for its route, and — on traced routes with a tracer
// attached — opens the request's server span, honouring an inbound W3C
// traceparent header so the client's trace continues here. The span
// rides the request context; reject() and the handlers annotate it.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	spanName := spanNames[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.now()
		if tracer := s.cfg.Hooks.Tracer(); tracer != nil && spanName != "" {
			parent, _ := tracing.Extract(r.Header)
			ctx, span := tracer.StartRemote(r.Context(), spanName, parent)
			span.SetKind(tracing.KindServer)
			span.SetAttributes(
				tracing.Str("http.route", route),
				tracing.Str("http.method", r.Method),
			)
			r = r.WithContext(ctx)
			defer span.End()
		}
		h(w, r)
		s.cfg.Hooks.HTTPRequest(route, s.cfg.now().Sub(start).Seconds())
	}
}

// admit runs the shared admission checks for /v1 ingestion routes:
// drain state, per-client rate limit, and (when gated) the in-flight
// bound. It reports whether the request may proceed, having already
// written the refusal if not; the caller must call release() when done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, gated bool) (release func(), ok bool) {
	if s.draining.Load() {
		s.reject(w, r, http.StatusServiceUnavailable, "draining", "server is draining", time.Second)
		return nil, false
	}
	if allowed, retry := s.limiter.allow(clientKey(r)); !allowed {
		s.reject(w, r, http.StatusTooManyRequests, "rate_limit", "client rate limit exceeded", retry)
		return nil, false
	}
	if !gated || s.gate == nil {
		return func() {}, true
	}
	select {
	case s.gate <- struct{}{}:
	default:
		s.reject(w, r, http.StatusTooManyRequests, "overload", "server at capacity", time.Second)
		return nil, false
	}
	s.inflight.Add(1)
	return func() { <-s.gate; s.inflight.Done() }, true
}

// reject answers an inadmissible request: Retry-After for the statuses
// that promise it, a JSON error body, a rejection metric and a debug
// log. On traced requests the request span is marked failed (which also
// forces its export) and the log record carries the trace/span IDs.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, status int, reason, msg string, retry time.Duration) {
	s.cfg.Hooks.RequestRejected(reason)
	span := tracing.SpanFromContext(r.Context())
	span.SetStatus(tracing.StatusError, reason)
	span.SetAttributes(tracing.Int("http.status_code", int64(status)))
	if sc := span.Context(); sc.IsValid() {
		s.cfg.Logger.Debug("rejected", "path", r.URL.Path, "reason", reason, "status", status,
			"trace_id", sc.TraceID.String(), "span_id", sc.SpanID.String())
	} else {
		s.cfg.Logger.Debug("rejected", "path", r.URL.Path, "reason", reason, "status", status)
	}
	writeError(w, status, reason, msg, retry, -1)
}

// writeError answers with the unified error envelope (wire.ErrorBody,
// documented in docs/SERVING.md): a message, a stable machine-readable
// code, and — when retry > 0 — a Retry-After header mirrored into the
// body. accepted >= 0 adds the push-path resume offset; pass -1
// elsewhere.
func writeError(w http.ResponseWriter, status int, code, msg string, retry time.Duration, accepted int) {
	body := wire.ErrorBody{Error: msg, Code: code}
	if retry > 0 {
		sec := retrySeconds(retry)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		body.RetryAfterS = sec
	}
	if accepted >= 0 {
		body.Accepted = &accepted
	}
	writeJSON(w, status, body)
}

// retrySeconds rounds a wait up to whole seconds (the header's unit),
// never advertising zero.
func retrySeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// clientKey identifies a client for rate limiting: the remote host
// without the ephemeral port. (Deployments behind a proxy would key on
// a forwarded header; trusting one by default would let any client
// spoof its identity, so we don't.)
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func sessionID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if id == "" || len(id) > maxSessionIDLen {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "invalid session id", 0, -1)
		return "", false
	}
	return id, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// setWriteDeadline arms the per-request write deadline; SSE re-arms per
// event instead of per stream.
func (s *Server) setWriteDeadline(w http.ResponseWriter) {
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(s.cfg.now().Add(s.cfg.WriteTimeout))
}

// --- handlers --------------------------------------------------------

// pushResult is the JSON body answering a successful sample push: how
// many samples were accepted (pushed into the session queue). Refusals
// carry the same field inside the unified error envelope instead, so a
// client seeing a 429 resumes from Accepted either way.
type pushResult struct {
	Accepted int `json:"accepted"`
}

// accumTimer accumulates the total time spent in one phase of an
// interleaved loop (decode, enqueue) so a single child span can later
// represent the phase honestly: start at the first interval, duration =
// the sum. Disabled timers never read the clock — the untraced ingest
// path stays free of time syscalls beyond what it already had.
type accumTimer struct {
	enabled bool
	first   time.Time
	mark    time.Time
	accum   time.Duration
}

func (t *accumTimer) start() {
	if !t.enabled {
		return
	}
	t.mark = time.Now()
	if t.first.IsZero() {
		t.first = t.mark
	}
}

func (t *accumTimer) stop() {
	if !t.enabled {
		return
	}
	t.accum += time.Since(t.mark)
}

// emit synthesizes the phase's child span under parent.
func (t *accumTimer) emit(tracer *tracing.Tracer, parent tracing.SpanContext, name string, attrs ...tracing.Attr) {
	if !t.enabled || t.first.IsZero() {
		return
	}
	span := tracer.StartAt(parent, name, t.first)
	span.SetAttributes(attrs...)
	span.EndAt(t.first.Add(t.accum))
}

func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, true)
	if !ok {
		return
	}
	defer release()
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	if s.routeAway(w, r, id) {
		return
	}
	ct := r.Header.Get("Content-Type")
	if ct != wire.ContentTypeNDJSON && ct != wire.ContentTypeBinary {
		writeError(w, http.StatusUnsupportedMediaType, wire.CodeBadRequest,
			fmt.Sprintf("Content-Type must be %s or %s", wire.ContentTypeNDJSON, wire.ContentTypeBinary), 0, -1)
		return
	}
	s.setWriteDeadline(w)

	span := tracing.SpanFromContext(r.Context())
	span.SetAttributes(tracing.Str("session", id))
	tracer := s.cfg.Hooks.Tracer()
	decodeT := accumTimer{enabled: span.Sampled()}
	enqueueT := accumTimer{enabled: span.Sampled()}
	finish := func(accepted int) {
		span.SetAttributes(tracing.Int("samples.accepted", int64(accepted)))
		decodeT.emit(tracer, span.Context(), "wire.decode",
			tracing.Str("codec", ct), tracing.Int("samples", int64(accepted)))
		enqueueT.emit(tracer, span.Context(), "hub.enqueue",
			tracing.Int("samples", int64(accepted)))
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := wire.NewDecoder(body, ct)
	accepted := 0
	// push enqueues one block under a single hub lock acquisition,
	// keeping the accepted count exact across partial acceptance.
	push := func(block []ptrack.Sample) error {
		if len(block) == 0 {
			return nil
		}
		enqueueT.start()
		n, err := s.hub.PushBlock(id, block)
		enqueueT.stop()
		if accepted == 0 && n > 0 && span.Sampled() {
			// First accepted push of a sampled request: this request's
			// trace now governs the session's asynchronous pipeline spans.
			s.hub.SetTrace(id, span.Context())
		}
		accepted += n
		return err
	}
	var block []ptrack.Sample
	for {
		decodeT.start()
		var decErr error
		block, decErr = dec.NextBlock(block, ptrack.BlockSamples)
		decodeT.stop()
		if !s.cfg.Conditioning {
			for i := range block {
				if block[i].Finite() {
					continue
				}
				// The finite prefix is still good data: enqueue it first
				// so the accepted count the client resumes from is exact.
				idx := dec.Decoded() - len(block) + i
				if err := push(block[:i]); err != nil {
					finish(accepted)
					s.samplesPushError(w, r, accepted, err)
					return
				}
				finish(accepted)
				s.cfg.Hooks.RequestRejected("decode")
				span.SetStatus(tracing.StatusError, "non-finite sample")
				writeError(w, http.StatusBadRequest, wire.CodeDecode,
					fmt.Sprintf("sample %d: non-finite field (enable conditioning to repair)", idx), 0, accepted)
				return
			}
		}
		if err := push(block); err != nil {
			finish(accepted)
			s.samplesPushError(w, r, accepted, err)
			return
		}
		if decErr == io.EOF {
			finish(accepted)
			writeJSON(w, http.StatusOK, pushResult{Accepted: accepted})
			return
		}
		if decErr != nil {
			finish(accepted)
			s.samplesDecodeError(w, r, accepted, decErr)
			return
		}
	}
}

// samplesDecodeError classifies a decoder failure: body-cap overflows
// are 413, malformed input is 400. Either way the client learns how
// many samples were already accepted.
func (s *Server) samplesDecodeError(w http.ResponseWriter, r *http.Request, accepted int, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.reject(w, r, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), 0)
		return
	}
	s.cfg.Hooks.RequestRejected("decode")
	span := tracing.SpanFromContext(r.Context())
	span.SetStatus(tracing.StatusError, "decode")
	writeError(w, http.StatusBadRequest, wire.CodeDecode, err.Error(), 0, accepted)
}

// samplesPushError maps hub refusals onto backpressure responses. The
// refused sample is not counted as accepted, so a client that resumes
// from Accepted loses nothing.
func (s *Server) samplesPushError(w http.ResponseWriter, r *http.Request, accepted int, err error) {
	switch {
	case errors.Is(err, ptrack.ErrSessionQueueFull):
		s.cfg.Hooks.RequestRejected("backpressure")
		writeError(w, http.StatusTooManyRequests, wire.CodeBackpressure, "session queue full", time.Second, accepted)
	case errors.Is(err, ptrack.ErrHubClosed):
		s.reject(w, r, http.StatusServiceUnavailable, "draining", "server is draining", time.Second)
	default:
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error(), 0, accepted)
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, false)
	if !ok {
		return
	}
	defer release()
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	if s.routeAway(w, r, id) {
		return
	}
	if c := s.cfg.Cluster; c != nil {
		if owner, selfOwned := c.Owner(id); !selfOwned {
			// A forwarded subscription landed on a non-owner: the rings
			// disagree mid-change. Serving it here would park the stream
			// on a session this replica will never host, so refuse it and
			// let the client retry once the rings agree.
			s.reject(w, r, http.StatusServiceUnavailable, wire.CodeShardMoved,
				fmt.Sprintf("session owned by replica %q", owner.Name), time.Second)
			return
		}
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, wire.CodeInternal, "response writer cannot stream", 0, -1)
		return
	}
	sub := s.broker.subscribe(id)
	if sub == nil {
		s.reject(w, r, http.StatusServiceUnavailable, "draining", "server is draining", time.Second)
		return
	}
	defer s.broker.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", wire.ContentTypeSSE)
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(s.cfg.now().Add(s.cfg.WriteTimeout))
	fmt.Fprintf(w, ": attached session=%s\n\n", id)
	flusher.Flush()

	tracer := s.cfg.Hooks.Tracer()
	for {
		select {
		case <-r.Context().Done():
			return
		case msg, open := <-sub.ch:
			_ = rc.SetWriteDeadline(s.cfg.now().Add(s.cfg.WriteTimeout))
			if !open {
				if sub.moved != "" {
					// Shard migration, not a real end: tell the client to
					// reconnect (routing finds the new owner).
					fmt.Fprintf(w, "event: %s\ndata: %s\n\n",
						wire.SSEEventMoved, wire.AppendMoved(nil, sub.moved))
				} else {
					fmt.Fprintf(w, "event: %s\ndata: {}\n\n", wire.SSEEventEnd)
				}
				flusher.Flush()
				return
			}
			if msg.gap > 0 {
				// Announce the loss before the event that survived it: the
				// client learns its stream has a hole (cumulative count)
				// and can resync from the next event's total_steps.
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n",
					wire.SSEEventGap, wire.AppendGap(nil, msg.gap)); err != nil {
					return
				}
			}
			if msg.payload == nil {
				// Pure gap notice (drops outstanding when the session
				// ended); nothing else to deliver.
				flusher.Flush()
				continue
			}
			// sse.deliver continues the pipeline trace: its parent is the
			// event.emit span the hub minted when this event left the
			// tracker (zero context when the request was unsampled).
			var deliver *tracing.Span
			if msg.sc.IsValid() && msg.sc.Sampled() {
				deliver = tracer.StartAt(msg.sc, "sse.deliver", time.Time{})
				deliver.SetAttributes(
					tracing.Str("session", id),
					tracing.Int("payload_bytes", int64(len(msg.payload))),
				)
			}
			_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", wire.SSEEventCycle, msg.payload)
			if err != nil {
				deliver.SetStatus(tracing.StatusError, "write failed")
				deliver.End()
				return
			}
			flusher.Flush()
			deliver.End()
		}
	}
}

func (s *Server) handleEndSession(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, false)
	if !ok {
		return
	}
	defer release()
	id, ok := sessionID(w, r)
	if !ok {
		return
	}
	if s.routeAway(w, r, id) {
		return
	}
	s.setWriteDeadline(w)
	// End blocks until the session's trailing events are delivered (and
	// its subscribers ended); ending an unknown session is a no-op, so
	// DELETE is idempotent.
	s.hub.End(id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, true)
	if !ok {
		return
	}
	defer release()
	s.setWriteDeadline(w)

	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		s.samplesDecodeError(w, r, 0, err)
		return
	}
	traces, err := wire.DecodeBatch(body, maxBatchTraces)
	if errors.Is(err, wire.ErrTooManyTraces) {
		s.reject(w, r, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("at most %d traces per batch", maxBatchTraces), 0)
		return
	}
	if err != nil {
		s.samplesDecodeError(w, r, 0, err)
		return
	}
	if len(traces) == 0 {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "no traces in request", 0, -1)
		return
	}
	items, err := s.pool.Process(r.Context(), traces)
	if err != nil {
		// Only context failure reaches here; per-trace errors live in items.
		writeError(w, http.StatusServiceUnavailable, wire.CodeCanceled, err.Error(), 0, -1)
		return
	}
	resp := wire.BatchResponse{Results: make([]wire.BatchResult, len(items))}
	for i, it := range items {
		if it.Err != nil {
			resp.Results[i].Error = it.Err.Error()
		} else {
			resp.Results[i].Result = it.Result
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readBody reads a whole request body into one buffer sized from its
// declared length, capped at limit (the body's MaxBytesReader enforces
// the cap itself), so a body of known length is read without regrowing.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared >= 0 {
		buf.Grow(int(min(declared, limit)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Report the drain distinctly the moment Shutdown begins: a load
		// balancer polling readiness should eject this replica before the
		// in-flight wait completes. Deliberately NOT a reject(): probe
		// traffic would otherwise inflate the rejection counters on every
		// poll of a draining replica.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
			wire.ErrorBody
		}{
			Status: "draining",
			ErrorBody: wire.ErrorBody{
				Error:       "server is draining",
				Code:        wire.CodeDraining,
				RetryAfterS: 1,
			},
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": s.hub.ActiveSessions(),
	})
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": s.cfg.Version})
}

// discardHandler is a slog.Handler that drops everything (slog has no
// stdlib discard handler until 1.24).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
