// Package client is the Go client for the ptrack serving layer. It
// mirrors the facade over HTTP: a Session buffers samples and streams
// them to the server in batches (Push/Flush/End ↔ Online.Push/Flush),
// Events subscribes to a session's classification events over SSE, and
// ProcessTrace/ProcessBatch run whole traces through the server's pool.
//
// The client speaks the wire formats of internal/wire — NDJSON by
// default, the compact binary framing with WithBinary — and implements
// the server's admission contract: on 429 and 5xx it backs off
// exponentially with jitter (honouring Retry-After), resumes partially
// accepted pushes from the server's reported offset, and respects
// context cancellation everywhere.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptrack"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/wire"
)

// ErrGiveUp wraps the last refusal after retries are exhausted.
var ErrGiveUp = errors.New("client: retries exhausted")

// A StatusError is a non-retryable HTTP refusal (4xx other than 429).
// Code carries the server's stable machine-readable reason from the
// unified error envelope ("bad_request", "decode", "body_too_large", …;
// empty when the server predates the envelope) — branch on it, not on
// the message text.
type StatusError struct {
	Status int
	Code   string
	Msg    string
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: server returned %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
}

// errorBody mirrors the server's unified error envelope
// (docs/SERVING.md): message, stable code, the Retry-After wait
// mirrored into the body, and — on push refusals — how many samples
// were accepted before the refusal.
type errorBody struct {
	Error       string `json:"error"`
	Code        string `json:"code"`
	RetryAfterS int    `json:"retry_after_s"`
	Accepted    *int   `json:"accepted"`
}

// retryWait reconciles the Retry-After header with the envelope's
// mirrored copy: the header wins when present, the body fills in when a
// proxy stripped it. now anchors the HTTP-date form of the header.
func retryWait(h http.Header, body errorBody, now time.Time) time.Duration {
	if d := parseRetryAfter(h, now); d > 0 {
		return d
	}
	if body.RetryAfterS > 0 {
		return time.Duration(body.RetryAfterS) * time.Second
	}
	return 0
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default:
// a dedicated client with no global timeout — requests are bounded per
// call by contexts, and SSE streams are long-lived by design).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBinary selects the compact binary framing for sample pushes
// (64 bytes per sample, alloc-free decode server-side) instead of
// NDJSON.
func WithBinary() Option { return func(c *Client) { c.binary = true } }

// WithBatchSize sets how many samples a Session buffers before pushing
// (default 256). Push sends immediately once the buffer is full; Flush
// sends whatever is pending. With WithBinary the size is rounded up to
// a multiple of ptrack.BlockSamples so every payload is whole wire
// frames — the server's decoder then never buffers a partial-frame
// tail between reads, and its block pushes run at full width.
func WithBatchSize(n int) Option { return func(c *Client) { c.batch = n } }

// WithRetry tunes the backoff loop: at most maxRetries retries per
// request, starting at base and doubling up to maxWait (defaults: 5,
// 100ms, 5s). The server's Retry-After raises a step's wait when
// longer. maxRetries of 0 disables retrying.
func WithRetry(maxRetries int, base, maxWait time.Duration) Option {
	return func(c *Client) { c.maxRetries, c.backoffBase, c.backoffMax = maxRetries, base, maxWait }
}

// WithTracer attaches a span tracer (see ptrack.NewTracer): pushes,
// batch runs and event subscriptions then run under client spans —
// children of whatever span rides the call's context — and every
// request carries the W3C traceparent header, so a tracing server
// continues the same trace. A nil tracer (the default) costs nothing.
func WithTracer(t *ptrack.Tracer) Option { return func(c *Client) { c.tracer = t } }

// Attempt describes one HTTP attempt made by the client's retry
// machinery — the raw material for load harnesses and SLO monitors
// that need per-attempt visibility rather than the per-call view the
// errors give (a call that succeeds on its third attempt still made
// two refused attempts).
type Attempt struct {
	// Op names the API call: "push", "batch", "events" or "end_session".
	Op string
	// Status is the HTTP status of the attempt, or 0 when the transport
	// failed before a response arrived.
	Status int
	// Err is the transport error when Status is 0, nil otherwise.
	Err error
	// Start is when the attempt's request began.
	Start time.Time
	// Duration is the attempt's wall time: request write through
	// response-header receipt (plus body decode on the push path).
	Duration time.Duration
	// Retries is the attempt's index within its call: 0 for the first
	// try, n for the n-th retry.
	Retries int
	// RetryAfter is the wait the server promised alongside a refusal
	// (from either Retry-After form or the envelope's mirror), 0 when
	// absent or not applicable.
	RetryAfter time.Duration
}

// WithAttemptHook observes every HTTP attempt the client makes,
// including the refused and failed ones that retries paper over. The
// hook is called synchronously on the requesting goroutine — keep it
// cheap (count, record a histogram sample) and do not block.
func WithAttemptHook(fn func(Attempt)) Option { return func(c *Client) { c.attemptHook = fn } }

// Client talks to one ptrack server. Safe for concurrent use; Sessions
// are not (use one per pushing goroutine, like Online).
type Client struct {
	base   string
	hc     *http.Client
	binary bool
	batch  int

	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
	tracer      *ptrack.Tracer
	attemptHook func(Attempt)
	now         func() time.Time // stubbed in tests

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// Dial prepares a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). It validates the URL but does not contact
// the server — the first request does.
func Dial(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: unsupported scheme %q (want http or https)", u.Scheme)
	}
	c := &Client{
		base:        strings.TrimRight(u.String(), "/"),
		hc:          &http.Client{},
		batch:       256,
		maxRetries:  5,
		backoffBase: 100 * time.Millisecond,
		backoffMax:  5 * time.Second,
		now:         time.Now,
		rng:         rand.New(rand.NewSource(rand.Int63())),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.batch <= 0 {
		c.batch = 256
	}
	if c.binary {
		// Align binary batches to whole wire blocks (see WithBatchSize).
		if r := c.batch % ptrack.BlockSamples; r != 0 {
			c.batch += ptrack.BlockSamples - r
		}
	}
	return c, nil
}

// Healthy reports whether the server answers /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: healthz: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz: status %d", resp.StatusCode)
	}
	return nil
}

// Version returns the server's build banner.
func (c *Client) Version(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/version", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: version: %w", err)
	}
	defer drainClose(resp.Body)
	var v struct {
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", fmt.Errorf("client: version: %w", err)
	}
	return v.Version, nil
}

// --- sessions --------------------------------------------------------

// Session buffers samples for one server-side session. Not safe for
// concurrent use (mirror of Online); distinct Sessions of one Client
// are independent.
type Session struct {
	c       *Client
	id      string
	pending []ptrack.Sample
	buf     []byte // reusable encode buffer
	ended   bool
}

// Session returns a handle for the given session ID. The server creates
// the session on its first sample.
func (c *Client) Session(id string) *Session {
	return &Session{c: c, id: id}
}

// Push buffers samples, streaming full batches to the server. An error
// leaves unsent samples pending, so a later Push or Flush retries them.
func (s *Session) Push(ctx context.Context, samples ...ptrack.Sample) error {
	if s.ended {
		return errors.New("client: session ended")
	}
	s.pending = append(s.pending, samples...)
	for len(s.pending) >= s.c.batch {
		if err := s.send(ctx, s.pending[:s.c.batch]); err != nil {
			return err
		}
		s.pending = s.pending[:copy(s.pending, s.pending[s.c.batch:])]
	}
	return nil
}

// Flush pushes all pending samples to the server.
func (s *Session) Flush(ctx context.Context) error {
	if len(s.pending) == 0 {
		return nil
	}
	if err := s.send(ctx, s.pending); err != nil {
		return err
	}
	s.pending = s.pending[:0]
	return nil
}

// End flushes pending samples and ends the server-side session,
// flushing its tracker so trailing events are delivered to subscribers.
// The Session cannot be reused afterwards.
func (s *Session) End(ctx context.Context) error {
	if s.ended {
		return nil
	}
	if err := s.Flush(ctx); err != nil {
		return err
	}
	s.ended = true
	ctx, span := s.c.tracer.Start(ctx, "client.end_session")
	span.SetKind(tracing.KindClient)
	span.SetAttributes(tracing.Str("session", s.id))
	defer span.End()
	resp, err := s.c.do(ctx, "end_session", func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
			fmt.Sprintf("%s/v1/sessions/%s", s.c.base, url.PathEscape(s.id)), nil)
		if err != nil {
			return nil, err
		}
		tracing.Inject(span.Context(), req.Header)
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("client: end session: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("client: end session: status %d", resp.StatusCode)
	}
	return nil
}

// send delivers one batch, resuming from the server's accepted count on
// partial pushes (429 backpressure) and backing off per the retry
// policy. batch stays intact on error. With a tracer attached the whole
// delivery (including retries) runs under one client.push span whose
// identity every attempt propagates in its traceparent header.
func (s *Session) send(ctx context.Context, batch []ptrack.Sample) (err error) {
	ctx, span := s.c.tracer.Start(ctx, "client.push")
	span.SetKind(tracing.KindClient)
	span.SetAttributes(
		tracing.Str("session", s.id),
		tracing.Int("samples", int64(len(batch))),
	)
	defer func() {
		if err != nil {
			span.SetStatus(tracing.StatusError, err.Error())
		}
		span.End()
	}()
	ct := wire.ContentTypeNDJSON
	if s.c.binary {
		ct = wire.ContentTypeBinary
	}
	u := fmt.Sprintf("%s/v1/sessions/%s/samples", s.c.base, url.PathEscape(s.id))
	sent := 0
	for attempt := 0; ; attempt++ {
		s.buf = s.buf[:0]
		if s.c.binary {
			s.buf = wire.AppendBinaryHeader(s.buf)
			for _, sm := range batch[sent:] {
				s.buf = wire.AppendSampleBinary(s.buf, sm)
			}
		} else {
			for _, sm := range batch[sent:] {
				s.buf = wire.AppendSample(s.buf, sm)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(s.buf))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", ct)
		tracing.Inject(span.Context(), req.Header)
		start := s.c.now()
		resp, err := s.c.hc.Do(req)
		if err != nil {
			s.c.observe(Attempt{Op: "push", Err: err, Start: start,
				Duration: s.c.now().Sub(start), Retries: attempt})
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if attempt >= s.c.maxRetries {
				return fmt.Errorf("%w: %v", ErrGiveUp, err)
			}
			if err := s.c.sleep(ctx, attempt, 0); err != nil {
				return err
			}
			continue
		}
		// One decode serves every outcome: a success body carries only
		// accepted, a refusal the full envelope.
		var eb errorBody
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		drainClose(resp.Body)
		wait := retryWait(resp.Header, eb, s.c.now())
		s.c.observe(Attempt{Op: "push", Status: resp.StatusCode, Start: start,
			Duration: s.c.now().Sub(start), Retries: attempt, RetryAfter: wait})

		switch {
		case resp.StatusCode == http.StatusOK:
			if decErr != nil {
				return fmt.Errorf("client: push response: %w", decErr)
			}
			return nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
			if decErr == nil && eb.Accepted != nil {
				sent += *eb.Accepted // resume after what the server took
			}
			if sent >= len(batch) {
				return nil
			}
			if attempt >= s.c.maxRetries {
				return fmt.Errorf("%w: status %d (%s): %s", ErrGiveUp, resp.StatusCode, eb.Code, eb.Error)
			}
			if err := s.c.sleep(ctx, attempt, wait); err != nil {
				return err
			}
		default:
			return &StatusError{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
		}
	}
}

// --- events ----------------------------------------------------------

// EventStream is a live subscription to one session's classification
// events. Receive from Events(); the channel closes when the session
// ends (server flush delivered) or the stream fails — check Err() after
// the close to distinguish. A subscriber that reads too slowly loses
// events server-side; the server says so with gap notices, surfaced
// here through Dropped().
//
// The stream survives connection loss: a dropped connection (transport
// failure, server restart, or a `moved` notice when the session's
// shard migrated to another cluster replica) is reconnected with the
// client's backoff policy, transparently to the reader. Events
// replayed across the reconnect are deduplicated by cycle time, and
// each connection's server-side drop counts fold into Dropped() so the
// total stays cumulative across connections. Only a clean `end` event,
// context cancellation, Close, or an exhausted reconnect budget close
// the channel.
type EventStream struct {
	c       *Client
	session string
	ch      chan ptrack.Event
	cancel  context.CancelFunc

	dropped atomic.Int64

	// Reconnect state, owned by the run goroutine.
	lastT     float64 // newest delivered event's cycle time, for replay dedupe
	lastTotal int     // newest delivered event's TotalSteps, for jump detection
	seen      bool    // at least one event delivered (lastT is meaningful)
	resumed   bool    // reconnected, and no event delivered on this connection yet
	connBase  int64   // drops folded in from completed connections

	mu  sync.Mutex
	err error
}

// Events returns the receive channel. It closes on normal end-of-stream
// and on error alike.
func (es *EventStream) Events() <-chan ptrack.Event { return es.ch }

// Err reports why the stream ended: nil after a normal end (the session
// ended server-side), the context's error after cancellation, or the
// transport/decoding failure.
func (es *EventStream) Err() error {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.err
}

// Close tears the subscription down early.
func (es *EventStream) Close() { es.cancel() }

// Dropped reports how many events the server has dropped from this
// subscription so far (cumulative, from the server's gap notices). It
// also counts at least one drop when the first event after a reconnect
// jumps past the last delivered TotalSteps: events the server emitted
// while no connection was attached (e.g. on a shard's new owner before
// the client reattached) reach no subscriber and no gap notice. A
// nonzero value means the stream is incomplete: per-event arithmetic
// (summing StepsAdded, collecting Strides) has holes, and the consumer
// should resync from the next event's TotalSteps, which the server
// keeps authoritative regardless of delivery losses.
func (es *EventStream) Dropped() int64 { return es.dropped.Load() }

// Events subscribes to a session's event stream. Subscribing before the
// first sample is the normal order for a client that wants every event.
// The returned stream lives until the session ends, the context is
// cancelled, or Close is called; dropped connections reconnect
// automatically (see EventStream).
func (c *Client) Events(ctx context.Context, session string) (*EventStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	body, err := c.subscribe(ctx, session)
	if err != nil {
		cancel()
		return nil, err
	}
	es := &EventStream{c: c, session: session, ch: make(chan ptrack.Event, 64), cancel: cancel}
	go es.run(ctx, body)
	return es, nil
}

// subscribe performs one SSE handshake against the session's event
// endpoint, returning the open stream body. The client's retry policy
// covers refused handshakes (429/5xx, with Retry-After honoured) — the
// reconnect path leans on that for its backoff.
func (c *Client) subscribe(ctx context.Context, session string) (io.ReadCloser, error) {
	// The span covers the subscribe handshake only — the stream itself is
	// long-lived by design and would make a meaningless span duration.
	spanCtx, span := c.tracer.Start(ctx, "client.events")
	span.SetKind(tracing.KindClient)
	span.SetAttributes(tracing.Str("session", session))
	defer span.End()
	resp, err := c.do(spanCtx, "events", func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/sessions/%s/events", c.base, url.PathEscape(session)), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Accept", wire.ContentTypeSSE)
		tracing.Inject(span.Context(), req.Header)
		return req, nil
	})
	if err != nil {
		return nil, fmt.Errorf("client: events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp.Body)
		return nil, fmt.Errorf("client: events: status %d", resp.StatusCode)
	}
	return resp.Body, nil
}

// run owns the stream's lifetime: it consumes one connection at a time
// and reconnects when a connection ends without a clean `end` event —
// a `moved` notice (shard migration), a transport failure, or a bare
// EOF from a dying server. Per-connection drop counts fold into the
// cumulative total before each reconnect. Consecutive connections that
// die without delivering a single frame burn one reconnect attempt
// each (with the client's backoff between them) so a wedged server
// can't spin the loop forever; any delivered frame resets the budget.
func (es *EventStream) run(ctx context.Context, body io.ReadCloser) {
	defer close(es.ch)
	fruitless := 0
	for {
		ended, sawFrame, err := es.consume(ctx, body)
		body.Close()
		if err != nil {
			es.fail(err)
			return
		}
		if ended {
			return
		}
		if err := ctx.Err(); err != nil {
			es.fail(err)
			return
		}
		// Fold this connection's drops into the base: the next
		// connection's gap notices count from zero again.
		es.connBase = es.dropped.Load()
		if sawFrame {
			fruitless = 0
		} else {
			fruitless++
			if fruitless > es.c.maxRetries {
				es.fail(fmt.Errorf("client: events: %w: stream kept dying before any event", ErrGiveUp))
				return
			}
			if err := es.c.sleep(ctx, fruitless-1, 0); err != nil {
				es.fail(err)
				return
			}
		}
		nb, err := es.c.subscribe(ctx, es.session)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			es.fail(err)
			return
		}
		body, es.resumed = nb, true
	}
}

// consume parses one SSE connection: "event:"/"data:" lines grouped by
// blank lines; a cycle event carries one encoded classification event,
// an end event terminates the stream for good, a moved event or EOF
// hands control back to run for a reconnect. Events already delivered
// on a previous connection (replayed across a migration, where the new
// owner resumes from a snapshot possibly older than what we saw) are
// recognised by cycle time and skipped. ended reports a clean `end`;
// sawFrame reports whether the connection produced any frame at all; a
// non-nil err is terminal (protocol violation or cancellation), never
// a mere connection loss.
func (es *EventStream) consume(ctx context.Context, body io.Reader) (ended, sawFrame bool, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), wire.MaxLineLen*2)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" {
				sawFrame = true
			}
			switch event {
			case wire.SSEEventEnd:
				return true, true, nil
			case wire.SSEEventMoved:
				// Session still live on another replica; reconnect
				// through the usual base URL — routing finds the owner.
				return false, true, nil
			case wire.SSEEventGap:
				if data != "" {
					n, perr := wire.ParseGapJSON([]byte(data))
					if perr != nil {
						return false, sawFrame, fmt.Errorf("client: events: %w", perr)
					}
					// The server count is cumulative per connection;
					// connBase carries the completed connections.
					es.dropped.Store(es.connBase + n)
				}
			case wire.SSEEventCycle:
				if data == "" {
					break
				}
				ev, perr := wire.ParseEventJSON([]byte(data))
				if perr != nil {
					return false, sawFrame, fmt.Errorf("client: events: %w", perr)
				}
				if es.seen && ev.T <= es.lastT {
					break // replay of an event delivered pre-reconnect
				}
				if es.resumed && es.seen && ev.TotalSteps-ev.StepsAdded > es.lastTotal {
					// Unannounced steps between connections: count them
					// as (at least) one drop, kept across this
					// connection's cumulative gap notices via connBase.
					es.connBase++
					es.dropped.Add(1)
				}
				es.resumed = false
				select {
				case es.ch <- ev:
					es.lastT, es.lastTotal, es.seen = ev.T, ev.TotalSteps, true
				case <-ctx.Done():
					return false, sawFrame, ctx.Err()
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		}
		// Comment lines (": …") and unknown fields are ignored per SSE.
	}
	if err := ctx.Err(); err != nil {
		return false, sawFrame, err
	}
	// Scanner errors and bare EOF alike mean the connection died without
	// an end event — the server went away mid-stream. Reconnectable.
	return false, sawFrame, nil
}

func (es *EventStream) fail(err error) {
	es.mu.Lock()
	es.err = err
	es.mu.Unlock()
}

// --- batch -----------------------------------------------------------

// ProcessTrace runs one whole trace through the server's batch pool —
// the remote mirror of Tracker.Process.
func (c *Client) ProcessTrace(ctx context.Context, tr *ptrack.Trace) (*ptrack.Result, error) {
	items, err := c.ProcessBatch(ctx, []*ptrack.Trace{tr})
	if err != nil {
		return nil, err
	}
	if items[0].Err != nil {
		return nil, items[0].Err
	}
	return items[0].Result, nil
}

// ProcessBatch runs traces through POST /v1/batch, with the retry
// policy applied to whole-request refusals (429/5xx). Like
// Pool.Process, per-trace failures are reported in the items, not as a
// call error.
func (c *Client) ProcessBatch(ctx context.Context, traces []*ptrack.Trace) ([]ptrack.BatchItem, error) {
	reqBody := wire.BatchRequest{Traces: make([]wire.BatchTrace, len(traces))}
	for i, tr := range traces {
		reqBody.Traces[i] = wire.FromTrace(tr)
	}
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return nil, fmt.Errorf("client: batch: %w", err)
	}
	ctx, span := c.tracer.Start(ctx, "client.batch")
	span.SetKind(tracing.KindClient)
	span.SetAttributes(tracing.Int("traces", int64(len(traces))))
	defer span.End()
	resp, err := c.do(ctx, "batch", func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", wire.ContentTypeJSON)
		tracing.Inject(span.Context(), req.Header)
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		drainClose(resp.Body)
		return nil, &StatusError{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
	}
	var br wire.BatchResponse
	decErr := json.NewDecoder(resp.Body).Decode(&br)
	drainClose(resp.Body)
	if decErr != nil {
		return nil, fmt.Errorf("client: batch response: %w", decErr)
	}
	items := make([]ptrack.BatchItem, len(br.Results))
	for i, res := range br.Results {
		if res.Error != "" {
			items[i].Err = errors.New(res.Error)
		} else {
			items[i].Result = res.Result
		}
	}
	return items, nil
}

// --- retry machinery -------------------------------------------------

// do issues a request with the retry policy: transport errors, 429 and
// 5xx retry with exponential backoff (honouring Retry-After) until the
// budget runs out. build is called per attempt so each request gets a
// fresh body. On success the response is returned with its body open.
// op names the call for the attempt hook.
func (c *Client) do(ctx context.Context, op string, build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		start := c.now()
		resp, err := c.hc.Do(req)
		if err != nil {
			c.observe(Attempt{Op: op, Err: err, Start: start,
				Duration: c.now().Sub(start), Retries: attempt})
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if attempt >= c.maxRetries {
				return nil, fmt.Errorf("%w: %v", ErrGiveUp, err)
			}
			if err := c.sleep(ctx, attempt, 0); err != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			var eb errorBody
			_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
			drainClose(resp.Body)
			wait := retryWait(resp.Header, eb, c.now())
			c.observe(Attempt{Op: op, Status: resp.StatusCode, Start: start,
				Duration: c.now().Sub(start), Retries: attempt, RetryAfter: wait})
			if attempt >= c.maxRetries {
				return nil, fmt.Errorf("%w: status %d (%s): %s", ErrGiveUp, resp.StatusCode, eb.Code, eb.Error)
			}
			if err := c.sleep(ctx, attempt, wait); err != nil {
				return nil, err
			}
			continue
		}
		c.observe(Attempt{Op: op, Status: resp.StatusCode, Start: start,
			Duration: c.now().Sub(start), Retries: attempt})
		return resp, nil
	}
}

// observe feeds one attempt to the hook, if any.
func (c *Client) observe(a Attempt) {
	if c.attemptHook != nil {
		c.attemptHook(a)
	}
}

// sleep waits out one backoff step: exponential from the base, capped,
// with ±25% jitter so a fleet of backing-off clients doesn't re-arrive
// in lockstep — but never below the server's Retry-After, which is a
// promise about when capacity returns, not a suggestion the jitter may
// undercut (the floor applies after the jitter, on 429 and 503 alike).
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.backoffBase << uint(attempt)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	if retryAfter > d {
		d = retryAfter
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2+1)) - time.Duration(int64(d)/4)
	c.mu.Unlock()
	d += jitter
	if retryAfter > 0 && d < retryAfter {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// parseRetryAfter reads both RFC 9110 forms of Retry-After: the
// delta-seconds form ptrack-serve emits ("2") and the HTTP-date form
// ("Fri, 07 Aug 2026 12:00:00 GMT") that proxies and load balancers in
// front of it rewrite or originate. Either form feeds the backoff floor
// (see sleep); a date at or before now — capacity already returned, or
// clock skew — clamps to 0 rather than going negative.
func parseRetryAfter(h http.Header, now time.Time) time.Duration {
	v := strings.TrimSpace(h.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	at, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := at.Sub(now); d > 0 {
		return d
	}
	return 0
}

// drainClose consumes a bounded remainder of a response body before
// closing so the underlying connection can be reused.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	_ = body.Close()
}
