// Package client is the Go client for the ptrack serving layer. It
// mirrors the facade over HTTP: a Session buffers samples and streams
// them to the server in batches (Push/Flush/End ↔ Online.Push/Flush),
// Events subscribes to a session's classification events over SSE, and
// ProcessTrace/ProcessBatch run whole traces through the server's pool.
//
// The client speaks the wire formats of internal/wire — NDJSON by
// default, the compact binary framing with WithBinary — and implements
// the server's refusal protocol through wire's one retry loop: on
// transport errors, 429 and 5xx it backs off exponentially with ±25%
// jitter, never retrying sooner than the refusal's Retry-After (header,
// or the envelope's retry_after_s when a proxy strips it); it resumes
// partially accepted pushes from the envelope's accepted offset and
// respects context cancellation everywhere. A 503 shard_moved — a
// push, subscription or end forwarded to a replica whose ring names
// another owner — is such a refusal: it accepted nothing, so the retry
// resends the whole batch once the replicas' rings agree.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// WithRetry tunes the retry budget (wire.Backoff): at most maxRetries
// retries per request, the wait starting at base and doubling up to
// maxWait with ±25% jitter (defaults: 5, 100ms, 5s). The server's
// Retry-After floors a step's wait. maxRetries of 0 disables retrying.
func WithRetry(maxRetries int, base, maxWait time.Duration) Option {
	return func(c *Client) { c.retry = wire.Backoff{Retries: maxRetries, Base: base, Max: maxWait} }
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

	retry       wire.Backoff
	tracer      *ptrack.Tracer
	attemptHook func(Attempt)
	now         func() time.Time // stubbed in tests
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
		base:  strings.TrimRight(u.String(), "/"),
		hc:    &http.Client{},
		batch: 256,
		retry: wire.Backoff{Retries: 5, Base: 100 * time.Millisecond, Max: 5 * time.Second},
		now:   time.Now,
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

// Push buffers samples, streaming full batches to the server. After an
// error exactly the samples the server has not accepted stay pending,
// so a later Push or Flush sends those and none it already took.
func (s *Session) Push(ctx context.Context, samples ...ptrack.Sample) error {
	if s.ended {
		return errors.New("client: session ended")
	}
	s.pending = append(s.pending, samples...)
	for len(s.pending) >= s.c.batch {
		if err := s.sendPending(ctx, s.c.batch); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes all pending samples to the server; on error the samples
// the server has not accepted stay pending, as with Push.
func (s *Session) Flush(ctx context.Context) error {
	if len(s.pending) == 0 {
		return nil
	}
	return s.sendPending(ctx, len(s.pending))
}

// sendPending sends the first n pending samples and drops from pending
// the prefix the server accepted, all n unless it refused.
func (s *Session) sendPending(ctx context.Context, n int) error {
	accepted, err := s.send(ctx, s.pending[:n])
	s.pending = s.pending[:copy(s.pending, s.pending[accepted:])]
	return err
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
// policy. It returns how many of batch's samples the server accepted:
// all of them once it answers 200, otherwise the prefix that the
// refusals' accepted counts cover (a terminal 400 carries one too).
// With a tracer attached the whole delivery (including retries) runs
// under one client.push span whose identity every attempt propagates
// in its traceparent header.
func (s *Session) send(ctx context.Context, batch []ptrack.Sample) (sent int, err error) {
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
	err = s.c.retry.Retry(ctx, func(n int) (bool, time.Duration, error) {
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
			return false, 0, err
		}
		req.Header.Set("Content-Type", ct)
		tracing.Inject(span.Context(), req.Header)
		start := s.c.now()
		resp, err := s.c.hc.Do(req)
		if err != nil {
			return true, 0, s.c.transportFailed("push", n, start, err)
		}
		// One decode serves every outcome: a success body carries only
		// accepted, a refusal the full envelope.
		eb, decErr := readEnvelope(resp.Body)
		if decErr == nil && eb.Accepted != nil {
			sent = min(sent+*eb.Accepted, len(batch)) // resume after what the server took
		}
		wait := wire.RetryWait(resp.Header, eb, s.c.now())
		s.c.observe(Attempt{Op: "push", Status: resp.StatusCode, Start: start,
			Duration: s.c.now().Sub(start), Retries: n, RetryAfter: wait})

		switch {
		case resp.StatusCode == http.StatusOK:
			sent = len(batch)
			if decErr != nil {
				return false, 0, fmt.Errorf("client: push response: %w", decErr)
			}
			return false, 0, nil
		case retryable(resp.StatusCode):
			if sent == len(batch) {
				return false, 0, nil
			}
			return true, wait, refused(resp.StatusCode, eb)
		default:
			return false, 0, &StatusError{Status: resp.StatusCode, Code: eb.Code, Msg: eb.Error}
		}
	})
	return sent, err
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
			if fruitless > es.c.retry.Retries {
				es.fail(fmt.Errorf("client: events: %w: stream kept dying before any event", ErrGiveUp))
				return
			}
			if err := es.c.retry.Wait(ctx, fruitless-1, 0); err != nil {
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
		eb, _ := readEnvelope(resp.Body)
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

// do issues a request under the retry budget: transport errors, 429
// and 5xx are retried (see wire.Backoff). build is called per attempt
// so each request gets a fresh body. On success the response is
// returned with its body open. op names the call for the attempt hook.
func (c *Client) do(ctx context.Context, op string, build func() (*http.Request, error)) (*http.Response, error) {
	var resp *http.Response
	err := c.retry.Retry(ctx, func(n int) (bool, time.Duration, error) {
		req, err := build()
		if err != nil {
			return false, 0, err
		}
		start := c.now()
		r, err := c.hc.Do(req)
		if err != nil {
			return true, 0, c.transportFailed(op, n, start, err)
		}
		if !retryable(r.StatusCode) {
			c.observe(Attempt{Op: op, Status: r.StatusCode, Start: start,
				Duration: c.now().Sub(start), Retries: n})
			resp = r
			return false, 0, nil
		}
		eb, _ := readEnvelope(r.Body)
		wait := wire.RetryWait(r.Header, eb, c.now())
		c.observe(Attempt{Op: op, Status: r.StatusCode, Start: start,
			Duration: c.now().Sub(start), Retries: n, RetryAfter: wait})
		return true, wait, refused(r.StatusCode, eb)
	})
	return resp, err
}

// retryable reports whether a status is a refusal worth retrying.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// refused is the error a retryable refusal leaves once the budget runs
// out.
func refused(status int, eb wire.ErrorBody) error {
	return fmt.Errorf("%w: status %d (%s): %s", ErrGiveUp, status, eb.Code, eb.Error)
}

// transportFailed reports a failed attempt to the hook and returns the
// error it leaves once the budget runs out.
func (c *Client) transportFailed(op string, n int, start time.Time, err error) error {
	c.observe(Attempt{Op: op, Err: err, Start: start, Duration: c.now().Sub(start), Retries: n})
	return fmt.Errorf("%w: %v", ErrGiveUp, err)
}

// observe feeds one attempt to the hook, if any.
func (c *Client) observe(a Attempt) {
	if c.attemptHook != nil {
		c.attemptHook(a)
	}
}

// readEnvelope decodes a bounded response body as the error envelope
// and closes it.
func readEnvelope(body io.ReadCloser) (wire.ErrorBody, error) {
	var eb wire.ErrorBody
	err := json.NewDecoder(io.LimitReader(body, 1<<16)).Decode(&eb)
	drainClose(body)
	return eb, err
}

// drainClose consumes a bounded remainder of a response body before
// closing so the underlying connection can be reused.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<16))
	_ = body.Close()
}
