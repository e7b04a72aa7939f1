package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptrack"
	"ptrack/internal/wire"
)

// TestStatusErrorCarriesCode proves the client surfaces the server's
// unified error envelope as a typed error: status, stable code and
// message, available to errors.As callers.
func TestStatusErrorCarriesCode(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"sample 3: non-finite field","code":"decode","accepted":3}`))
	}))
	defer srv.Close()

	c, err := Dial(srv.URL, WithRetry(0, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.Session("s")
	err = sess.Push(context.Background(), make([]ptrack.Sample, 300)...)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("Push error = %v (%T), want *StatusError", err, err)
	}
	if se.Status != http.StatusBadRequest || se.Code != "decode" {
		t.Fatalf("StatusError = %+v, want status 400 code %q", se, "decode")
	}
	if se.Msg != "sample 3: non-finite field" {
		t.Fatalf("StatusError.Msg = %q", se.Msg)
	}
}

// TestRetryAfterFloorsBackoff proves the 503 path honours Retry-After
// exactly like 429: the wait between attempts never undercuts the
// server's promise, jitter notwithstanding.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		var calls atomic.Int32
		var gap atomic.Int64
		var first time.Time
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch calls.Add(1) {
			case 1:
				first = time.Now()
				w.Header().Set("Retry-After", "1")
				w.Header().Set("Content-Type", wire.ContentTypeJSON)
				w.WriteHeader(status)
				w.Write([]byte(`{"error":"later","code":"overload","retry_after_s":1,"accepted":0}`))
			default:
				gap.Store(int64(time.Since(first)))
				w.Header().Set("Content-Type", wire.ContentTypeJSON)
				w.Write([]byte(`{"accepted":300}`))
			}
		}))

		// A tiny backoff base would normally retry in microseconds; only
		// the Retry-After floor can stretch the gap to a full second.
		c, err := Dial(srv.URL, WithRetry(2, time.Microsecond, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sess := c.Session("s")
		if err := sess.Push(context.Background(), make([]ptrack.Sample, 300)...); err != nil {
			t.Fatalf("status %d: Push = %v", status, err)
		}
		if calls.Load() != 2 {
			t.Fatalf("status %d: %d requests, want 2", status, calls.Load())
		}
		if got := time.Duration(gap.Load()); got < time.Second {
			t.Fatalf("status %d: retried after %v, promised Retry-After of 1s", status, got)
		}
		srv.Close()
	}
}

// TestRetryAfterBodyFallback proves the envelope's retry_after_s floors
// the backoff even when a proxy strips the Retry-After header.
func TestRetryAfterBodyFallback(t *testing.T) {
	var calls atomic.Int32
	var first time.Time
	var gap atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			first = time.Now()
			w.Header().Set("Content-Type", wire.ContentTypeJSON)
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining","code":"draining","retry_after_s":1}`))
		default:
			gap.Store(int64(time.Since(first)))
			w.Write([]byte(`{"accepted":300}`))
		}
	}))
	defer srv.Close()

	c, err := Dial(srv.URL, WithRetry(2, time.Microsecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.Session("s")
	if err := sess.Push(context.Background(), make([]ptrack.Sample, 300)...); err != nil {
		t.Fatalf("Push = %v", err)
	}
	if got := time.Duration(gap.Load()); got < time.Second {
		t.Fatalf("retried after %v despite body retry_after_s of 1s", got)
	}
}

// TestRetryAfterHTTPDateFloorsBackoff is the regression test for the
// date-form bug end to end: a 429 whose Retry-After is an HTTP date one
// second out must floor the retry gap exactly like the delta form —
// with a microsecond backoff base, only the parsed date can stretch the
// gap to a full second. The client clock is stubbed so the date's
// distance from "now" is exact.
func TestRetryAfterHTTPDateFloorsBackoff(t *testing.T) {
	anchor := time.Now().Truncate(time.Second) // HTTP dates have second granularity
	var calls atomic.Int32
	var first time.Time
	var gap atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			first = time.Now()
			w.Header().Set("Retry-After", anchor.Add(time.Second).UTC().Format(http.TimeFormat))
			w.Header().Set("Content-Type", wire.ContentTypeJSON)
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"later","code":"rate_limit","accepted":0}`))
		default:
			gap.Store(int64(time.Since(first)))
			w.Write([]byte(`{"accepted":300}`))
		}
	}))
	defer srv.Close()

	c, err := Dial(srv.URL, WithRetry(2, time.Microsecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.now = func() time.Time { return anchor }
	if err := c.Session("s").Push(context.Background(), make([]ptrack.Sample, 300)...); err != nil {
		t.Fatalf("Push = %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d requests, want 2", calls.Load())
	}
	if got := time.Duration(gap.Load()); got < time.Second {
		t.Fatalf("retried after %v, HTTP-date Retry-After promised 1s", got)
	}
}

// TestAttemptHookSeesRefusals proves the per-attempt hook observes the
// refused attempts the retry loop papers over: statuses, retry indices
// and the server's Retry-After wait.
func TestAttemptHookSeesRefusals(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", wire.ContentTypeJSON)
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"later","code":"rate_limit","accepted":0}`))
			return
		}
		w.Write([]byte(`{"accepted":300}`))
	}))
	defer srv.Close()

	var mu sync.Mutex
	var attempts []Attempt
	c, err := Dial(srv.URL,
		WithRetry(2, time.Microsecond, time.Millisecond),
		WithAttemptHook(func(a Attempt) { mu.Lock(); attempts = append(attempts, a); mu.Unlock() }))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Session("s").Push(context.Background(), make([]ptrack.Sample, 300)...); err != nil {
		t.Fatalf("Push = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(attempts) != 2 {
		t.Fatalf("hook saw %d attempts, want 2: %+v", len(attempts), attempts)
	}
	if attempts[0].Op != "push" || attempts[0].Status != http.StatusTooManyRequests ||
		attempts[0].Retries != 0 || attempts[0].RetryAfter != time.Second {
		t.Errorf("first attempt = %+v, want push/429/retries=0/retryAfter=1s", attempts[0])
	}
	if attempts[1].Status != http.StatusOK || attempts[1].Retries != 1 {
		t.Errorf("second attempt = %+v, want 200 at retry 1", attempts[1])
	}
}

// TestPushGiveUpKeepsOnlyUnaccepted pins that a push which gives up
// after partial acceptance leaves pending only the samples the server
// has not taken: every push is answered 429 with 100 accepted, so a
// 256-sample Push gives up after two attempts took 200, and the
// following Flush sends the remaining 56 and no sample twice.
func TestPushGiveUpKeepsOnlyUnaccepted(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		sizes = append(sizes, bytes.Count(body, []byte("\n")))
		mu.Unlock()
		w.Header().Set("Content-Type", wire.ContentTypeJSON)
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"session queue full","code":"backpressure","accepted":100}`))
	}))
	defer srv.Close()

	c, err := Dial(srv.URL, WithRetry(1, time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sess := c.Session("s")
	if err := sess.Push(context.Background(), make([]ptrack.Sample, 256)...); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Push = %v, want ErrGiveUp", err)
	}
	flushErr := sess.Flush(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if want := []int{256, 156, 56}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("request sizes = %v, want %v", sizes, want)
	}
	if flushErr != nil {
		t.Fatalf("Flush = %v", flushErr)
	}
}

// TestEventStreamSurfacesGaps proves the client parses `gap` SSE events
// into the cumulative Dropped() counter while cycle events keep
// flowing, so a consumer knows its stream has holes and can resync from
// the next event's TotalSteps.
func TestEventStreamSurfacesGaps(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentTypeSSE)
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, ": attached session=s\n\n")
		io.WriteString(w, "event: cycle\ndata: {\"t\":1,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":2,\"offset\":0.01}\n\n")
		io.WriteString(w, "event: gap\ndata: {\"dropped\":3}\n\n")
		io.WriteString(w, "event: cycle\ndata: {\"t\":9,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":12,\"offset\":0.01}\n\n")
		io.WriteString(w, "event: gap\ndata: {\"dropped\":5}\n\n")
		io.WriteString(w, "event: end\ndata: {}\n\n")
	}))
	defer srv.Close()

	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	es, err := c.Events(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var events []ptrack.Event
	for ev := range es.Events() {
		events = append(events, ev)
	}
	if err := es.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("received %d events, want 2", len(events))
	}
	if events[1].TotalSteps != 12 {
		t.Errorf("TotalSteps = %d, want 12 (authoritative across the gap)", events[1].TotalSteps)
	}
	if got := es.Dropped(); got != 5 {
		t.Errorf("Dropped() = %d, want cumulative 5", got)
	}
}

// TestBinaryBatchFrameAligned pins the wire-alignment contract: with
// binary framing the session batch size is rounded up to whole
// ptrack.BlockSamples blocks, so every payload the server decodes is an
// exact multiple of the frame size; NDJSON batches stay as given.
func TestBinaryBatchFrameAligned(t *testing.T) {
	cases := []struct {
		in     int
		binary bool
		want   int
	}{
		{100, true, 128},
		{128, true, 128},
		{1, true, ptrack.BlockSamples},
		{0, true, 256}, // default is already aligned
		{100, false, 100},
	}
	for _, tc := range cases {
		opts := []Option{WithBatchSize(tc.in)}
		if tc.binary {
			opts = append(opts, WithBinary())
		}
		c, err := Dial("http://127.0.0.1:1", opts...)
		if err != nil {
			t.Fatal(err)
		}
		if c.batch != tc.want {
			t.Errorf("batch(%d, binary=%v) = %d, want %d", tc.in, tc.binary, c.batch, tc.want)
		}
	}
}

// TestEventStreamReconnects pins the stream's survival contract: a
// connection killed mid-stream (no end event) is reconnected — through
// refused handshakes, with the retry policy — events replayed by the
// new connection are deduplicated, a `moved` notice triggers another
// reconnect (shard migration), and per-connection gap counts fold into
// a cumulative Dropped(). Only the final `end` closes the channel.
func TestEventStreamReconnects(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch conns.Add(1) {
		case 1:
			// First connection dies abruptly after two events and a gap
			// notice — a killed connection, not a session end.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n")
			io.WriteString(conn, ": attached session=s\n\n")
			io.WriteString(conn, "event: cycle\ndata: {\"t\":1,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":2,\"offset\":0.01}\n\n")
			io.WriteString(conn, "event: gap\ndata: {\"dropped\":3}\n\n")
			io.WriteString(conn, "event: cycle\ndata: {\"t\":2,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":4,\"offset\":0.01}\n\n")
			conn.Close()
		case 2:
			// The reconnect handshake gets refused once: the client's
			// retry policy must carry it through.
			w.Header().Set("Content-Type", wire.ContentTypeJSON)
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"server is draining","code":"unavailable"}`)
		case 3:
			// Second live connection replays the events the client
			// already has (the resumed snapshot was older than the
			// delivered stream), adds one, then announces a shard move.
			w.Header().Set("Content-Type", wire.ContentTypeSSE)
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "event: cycle\ndata: {\"t\":1,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":2,\"offset\":0.01}\n\n")
			io.WriteString(w, "event: cycle\ndata: {\"t\":2,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":4,\"offset\":0.01}\n\n")
			io.WriteString(w, "event: cycle\ndata: {\"t\":3,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":6,\"offset\":0.01}\n\n")
			io.WriteString(w, "event: gap\ndata: {\"dropped\":2}\n\n")
			io.WriteString(w, "event: moved\ndata: {\"owner\":\"http://elsewhere\"}\n\n")
		default:
			// Final connection: one more event, then a real end.
			w.Header().Set("Content-Type", wire.ContentTypeSSE)
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "event: cycle\ndata: {\"t\":4,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":8,\"offset\":0.01}\n\n")
			io.WriteString(w, "event: end\ndata: {}\n\n")
		}
	}))
	defer srv.Close()

	c, err := Dial(srv.URL, WithRetry(5, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	es, err := c.Events(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var events []ptrack.Event
	for ev := range es.Events() {
		events = append(events, ev)
	}
	if err := es.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("received %d events, want 4 (replays deduplicated)", len(events))
	}
	for i, ev := range events {
		if ev.T != float64(i+1) {
			t.Errorf("event %d: T = %v, want %d", i, ev.T, i+1)
		}
	}
	if events[3].TotalSteps != 8 {
		t.Errorf("TotalSteps = %d, want 8 (monotonic across reconnects)", events[3].TotalSteps)
	}
	if got := es.Dropped(); got != 5 {
		t.Errorf("Dropped() = %d, want 5 (3 on the first connection + 2 on the second)", got)
	}
	if n := conns.Load(); n != 4 {
		t.Errorf("connections = %d, want 4", n)
	}
}

// TestEventStreamCountsUnannouncedJump pins loss detection across a
// reconnect: when the first event of a new connection starts past the
// last delivered TotalSteps (events emitted while no connection was
// attached), Dropped counts it; a contiguous reconnect counts nothing.
func TestEventStreamCountsUnannouncedJump(t *testing.T) {
	for _, tc := range []struct {
		name  string
		total int // TotalSteps of the first event after the reconnect
		jump  bool
	}{
		{"jump", 8, true},
		{"contiguous", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var conns atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", wire.ContentTypeSSE)
				w.WriteHeader(http.StatusOK)
				if conns.Add(1) == 1 {
					// One event, then the connection ends without `end`.
					io.WriteString(w, "event: cycle\ndata: {\"t\":1,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":2,\"offset\":0.01}\n\n")
					return
				}
				fmt.Fprintf(w, "event: cycle\ndata: {\"t\":2,\"label\":\"walking\",\"steps_added\":2,\"total_steps\":%d,\"offset\":0.01}\n\n", tc.total)
				io.WriteString(w, "event: end\ndata: {}\n\n")
			}))
			defer srv.Close()

			c, err := Dial(srv.URL, WithRetry(2, time.Millisecond, 2*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			es, err := c.Events(context.Background(), "s")
			if err != nil {
				t.Fatal(err)
			}
			defer es.Close()
			n := 0
			for range es.Events() {
				n++
			}
			if err := es.Err(); err != nil {
				t.Fatalf("stream error: %v", err)
			}
			if n != 2 {
				t.Fatalf("received %d events, want 2", n)
			}
			if got := es.Dropped(); tc.jump && got < 1 {
				t.Errorf("Dropped() = %d after an unannounced jump, want >= 1", got)
			} else if !tc.jump && got != 0 {
				t.Errorf("Dropped() = %d after a contiguous reconnect, want 0", got)
			}
		})
	}
}

// TestEventStreamReconnectGivesUp bounds the reconnect loop: a server
// that accepts subscriptions but kills every connection before a
// single frame burns the retry budget and surfaces ErrGiveUp instead
// of spinning forever.
func TestEventStreamReconnectGivesUp(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", wire.ContentTypeSSE)
		w.WriteHeader(http.StatusOK)
		// No frames at all: the handshake succeeds, the stream is empty.
	}))
	defer srv.Close()

	c, err := Dial(srv.URL, WithRetry(2, time.Millisecond, 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	es, err := c.Events(context.Background(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	for range es.Events() {
		t.Fatal("unexpected event")
	}
	if err := es.Err(); !errors.Is(err, ErrGiveUp) {
		t.Fatalf("Err() = %v, want ErrGiveUp", err)
	}
	if n := conns.Load(); n != 3 {
		t.Errorf("connections = %d, want 3 (initial + maxRetries reconnects)", n)
	}
}
