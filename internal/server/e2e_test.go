package server_test

// End-to-end tests over loopback HTTP: a real listener, the real client
// package, both wire framings. The correctness bar is byte-identical
// parity — a trace streamed through the serving layer must yield
// exactly the events of a directly-fed Online tracker.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ptrack"
	"ptrack/client"
	"ptrack/internal/gaitsim"
	"ptrack/internal/obs"
	"ptrack/internal/server"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

func walkingTrace(t testing.TB, seconds float64) *trace.Trace {
	t.Helper()
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(),
		trace.ActivityWalking, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace
}

// startServer boots a server on an ephemeral loopback port and returns
// its base URL. Shutdown runs in cleanup unless the test already did.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, "http://" + srv.Addr()
}

// referenceEvents runs the trace through a directly-fed Online tracker
// and returns each event in its canonical wire encoding.
func referenceEvents(t *testing.T, tr *trace.Trace) [][]byte {
	t.Helper()
	online, err := ptrack.NewOnline(tr.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	var encoded [][]byte
	add := func(evs []ptrack.Event) {
		for _, ev := range evs {
			encoded = append(encoded, wire.AppendEvent(nil, ev))
		}
	}
	for _, s := range tr.Samples {
		add(online.Push(s))
	}
	add(online.Flush())
	if len(encoded) == 0 {
		t.Fatal("reference tracker emitted no events")
	}
	return encoded
}

// collectEvents drains an event stream to completion, re-encoding each
// event canonically.
func collectEvents(t *testing.T, es *client.EventStream) [][]byte {
	t.Helper()
	var encoded [][]byte
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, open := <-es.Events():
			if !open {
				if err := es.Err(); err != nil {
					t.Fatalf("event stream failed: %v", err)
				}
				return encoded
			}
			encoded = append(encoded, wire.AppendEvent(nil, ev))
		case <-timeout:
			t.Fatal("event stream did not end")
		}
	}
}

// TestE2EParity is the subsystem's correctness bar: a synthetic walking
// trace streamed over loopback HTTP — subscribe SSE, push in batches,
// end the session — must yield byte-identical events to feeding
// NewOnline directly, for both wire framings.
func TestE2EParity(t *testing.T) {
	tr := walkingTrace(t, 30)
	want := referenceEvents(t, tr)

	for _, mode := range []struct {
		name string
		opts []client.Option
	}{
		{"ndjson", nil},
		{"binary", []client.Option{client.WithBinary()}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, base := startServer(t, server.Config{SampleRate: tr.SampleRate})
			c, err := client.Dial(base, append([]client.Option{client.WithBatchSize(200)}, mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			es, err := c.Events(ctx, "parity")
			if err != nil {
				t.Fatal(err)
			}
			sess := c.Session("parity")
			if err := sess.Push(ctx, tr.Samples...); err != nil {
				t.Fatal(err)
			}
			if err := sess.End(ctx); err != nil {
				t.Fatal(err)
			}

			got := collectEvents(t, es)
			if len(got) != len(want) {
				t.Fatalf("got %d events, want %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("event %d differs:\n got  %s\n want %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestE2EBatchParity checks the remote batch path: ProcessBatch results
// must match local processing, with per-trace errors isolated.
func TestE2EBatchParity(t *testing.T) {
	tr := walkingTrace(t, 20)
	tk, err := ptrack.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tk.Process(tr)
	if err != nil {
		t.Fatal(err)
	}

	_, base := startServer(t, server.Config{SampleRate: tr.SampleRate})
	c, err := client.Dial(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	bad := &ptrack.Trace{} // zero sample rate: fails its item, not the batch
	items, err := c.ProcessBatch(ctx, []*ptrack.Trace{tr, bad, tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	for _, i := range []int{0, 2} {
		if items[i].Err != nil {
			t.Fatalf("item %d error: %v", i, items[i].Err)
		}
		got := items[i].Result
		if got.Steps != want.Steps {
			t.Errorf("item %d TotalSteps = %d, want %d", i, got.Steps, want.Steps)
		}
		if got.Distance != want.Distance {
			t.Errorf("item %d TotalDistanceM = %v, want %v", i, got.Distance, want.Distance)
		}
	}
	if items[1].Err == nil {
		t.Error("invalid trace produced no error")
	}

	res, err := c.ProcessTrace(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != want.Steps {
		t.Errorf("ProcessTrace TotalSteps = %d, want %d", res.Steps, want.Steps)
	}
}

// TestE2EShutdownDrain pins the drain contract: with an ingestion
// request in flight, Shutdown refuses new work with 503 while the
// in-flight push completes, the session's trailing events reach its
// subscriber, and only then does the stream end.
func TestE2EShutdownDrain(t *testing.T) {
	tr := walkingTrace(t, 30)
	// The whole trace is pushed in two raw bursts; a queue larger than
	// the trace keeps the in-flight request from finishing early on
	// backpressure (ErrSessionQueueFull), which would let the drain
	// complete before the test observes it.
	srv, base := startServer(t, server.Config{
		SampleRate: tr.SampleRate,
		Options:    []ptrack.Option{ptrack.WithSessionQueueSize(2 * len(tr.Samples))},
	})

	c, err := client.Dial(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	es, err := c.Events(ctx, "drain")
	if err != nil {
		t.Fatal(err)
	}

	// Hold an ingestion request open with a pipe-fed body: half the
	// trace now, the rest after Shutdown has begun.
	half := len(tr.Samples) / 2
	var first, second bytes.Buffer
	for _, s := range tr.Samples[:half] {
		first.Write(wire.AppendSample(nil, s))
	}
	for _, s := range tr.Samples[half:] {
		second.Write(wire.AppendSample(nil, s))
	}
	pr, pw := io.Pipe()
	pushDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sessions/drain/samples", pr)
		if err != nil {
			pushDone <- err
			return
		}
		req.Header.Set("Content-Type", wire.ContentTypeNDJSON)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			pushDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			pushDone <- fmt.Errorf("in-flight push status %d: %s", resp.StatusCode, body)
			return
		}
		pushDone <- nil
	}()
	if _, err := pw.Write(first.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Wait until the first half has demonstrably flowed through the
	// pipeline: at least one classification event arrived.
	select {
	case _, open := <-es.Events():
		if !open {
			t.Fatalf("event stream ended early: %v", es.Err())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("no event from first half of trace")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	// The draining flag flips before the in-flight wait; poll readyz
	// until it reports 503, then assert new ingestion is refused too.
	waitFor503(t, base+"/readyz")
	resp, err := http.Post(base+"/v1/sessions/other/samples", wire.ContentTypeNDJSON,
		strings.NewReader(string(wire.AppendSample(nil, tr.Samples[0]))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new push during drain = %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown finished before in-flight push: %v", err)
	default:
	}

	// Release the in-flight request; everything must now complete.
	if _, err := pw.Write(second.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-pushDone; err != nil {
		t.Fatalf("in-flight push: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The subscriber must receive the session's trailing flush events
	// and a clean end-of-stream — accepted samples are never silently
	// dropped by a drain.
	trailing := collectEvents(t, es)
	if len(trailing) == 0 {
		t.Error("no trailing events delivered during drain")
	}
}

func waitFor503(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("endpoint never reported 503")
}

// TestE2ERateLimit pins the throttle contract: past the burst the
// server answers 429 with a Retry-After, and a retrying client backs
// off and still completes its stream losslessly.
func TestE2ERateLimit(t *testing.T) {
	tr := walkingTrace(t, 10)
	reg := obs.NewRegistry()
	hooks := obs.NewHooks(reg)
	_, base := startServer(t, server.Config{
		SampleRate: tr.SampleRate,
		RatePerSec: 1,
		Burst:      1,
		Hooks:      hooks,
	})

	// Raw contract first: the request after the burst gets 429 + Retry-After.
	line := wire.AppendSample(nil, tr.Samples[0])
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/v1/sessions/raw/samples", wire.ContentTypeNDJSON,
			bytes.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first push = %d, want 200", resp.StatusCode)
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("push past burst = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if got := reg.Counter("ptrack_http_rejected_total", "", "reason", "rate_limit").Value(); got == 0 {
		t.Error("rate_limit rejection not counted")
	}

	// Client contract: with retries enabled, a multi-batch stream backs
	// off on the 429s and completes; the session's events still arrive.
	// A fresh server keeps the raw probes above out of this budget, and
	// a faster refill keeps the backoff exercise short.
	_, base2 := startServer(t, server.Config{
		SampleRate: tr.SampleRate,
		RatePerSec: 10,
		Burst:      1,
	})
	c, err := client.Dial(base2,
		client.WithBatchSize(len(tr.Samples)/3+1),
		client.WithRetry(8, 50*time.Millisecond, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	es, err := c.Events(ctx, "limited")
	if err != nil {
		t.Fatal(err)
	}
	sess := c.Session("limited")
	if err := sess.Push(ctx, tr.Samples...); err != nil {
		t.Fatalf("push through rate limit: %v", err)
	}
	if err := sess.End(ctx); err != nil {
		t.Fatal(err)
	}
	if evs := collectEvents(t, es); len(evs) == 0 {
		t.Error("no events after rate-limited stream")
	}
}

// TestE2ERequestValidation sweeps the refusal surface reachable over
// the wire: content types, body caps, malformed input, non-finite
// samples without conditioning, oversized IDs and batch shapes.
func TestE2ERequestValidation(t *testing.T) {
	tr := walkingTrace(t, 2)
	_, base := startServer(t, server.Config{
		SampleRate:   tr.SampleRate,
		MaxBodyBytes: 1024,
	})
	line := wire.AppendSample(nil, tr.Samples[0])

	post := func(path, ct string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		io.Copy(io.Discard, resp.Body)
		return resp
	}

	if resp := post("/v1/sessions/s/samples", "text/csv", line); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("bad content type = %d, want 415", resp.StatusCode)
	}
	if resp := post("/v1/sessions/s/samples", wire.ContentTypeNDJSON, []byte("{nope}\n")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed line = %d, want 400", resp.StatusCode)
	}
	big := bytes.Repeat(line, 1024/len(line)+2)
	if resp := post("/v1/sessions/s/samples", wire.ContentTypeNDJSON, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
	longID := strings.Repeat("x", 200)
	if resp := post("/v1/sessions/"+longID+"/samples", wire.ContentTypeNDJSON, line); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized session id = %d, want 400", resp.StatusCode)
	}
	nan := []byte(`{"t":0,"ax":NaN,"ay":0,"az":0,"yaw":0}` + "\n")
	if resp := post("/v1/sessions/s/samples", wire.ContentTypeNDJSON, nan); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("NaN line = %d, want 400", resp.StatusCode)
	}
	// Non-finite but syntactically valid JSON numbers can't express NaN;
	// the binary framing can.
	s := tr.Samples[0]
	s.Accel.X = nan64()
	bin := wire.AppendSampleBinary(wire.AppendBinaryHeader(nil), s)
	if resp := post("/v1/sessions/s/samples", wire.ContentTypeBinary, bin); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-finite binary sample without conditioning = %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/batch", wire.ContentTypeJSON, []byte(`{"traces":[]}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", resp.StatusCode)
	}
}

// TestE2EBatchBodyGrammar pins the /v1/batch body contract: malformed
// bodies answer 400, more than 256 traces or an oversized body 413, and
// a non-finite number reaches admission, which refuses only its trace.
func TestE2EBatchBodyGrammar(t *testing.T) {
	_, base := startServer(t, server.Config{SampleRate: 100, MaxBodyBytes: 64 << 10})
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/batch", wire.ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	frame := `[0,0,0,9.81,0,0,0,0]`
	one := `{"rate":100,"samples":[` + frame + `]}`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"seven-number frame", `{"traces":[{"rate":100,"samples":[[0,0,0,9.81,0,0,0]]}]}`, http.StatusBadRequest},
		{"unknown key", `{"traces":[` + one + `],"workers":4}`, http.StatusBadRequest},
		{"null samples", `{"traces":[{"rate":100,"samples":null}]}`, http.StatusBadRequest},
		{"trailing data", `{"traces":[` + one + `]}]`, http.StatusBadRequest},
		{"257 traces", `{"traces":[` + strings.Repeat(one+",", 256) + one + `]}`, http.StatusRequestEntityTooLarge},
		{"oversized body", `{"traces":[{"rate":100,"samples":[` + strings.Repeat(frame+",", 4096) + frame + `]}]}`,
			http.StatusRequestEntityTooLarge},
	} {
		if status, body := post(tc.body); status != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, status, tc.status, body)
		}
	}
	status, body := post(`{"traces":[{"rate":100,"samples":[[0,NaN,0,9.81,0,0,0,0]]}]}`)
	if status != http.StatusOK || !strings.Contains(string(body), "defective") {
		t.Errorf("non-finite sample: status %d, body %s; want 200 with a defective-trace item", status, body)
	}
}

func nan64() float64 {
	var zero float64
	return zero / zero
}

// TestE2EConditioningRepairsNonFinite checks the conditioning flag's
// wire-visible effect: the same non-finite sample that 400s above is
// accepted when the server conditions ingested data.
func TestE2EConditioningRepairsNonFinite(t *testing.T) {
	tr := walkingTrace(t, 2)
	_, base := startServer(t, server.Config{SampleRate: tr.SampleRate, Conditioning: true})
	s := tr.Samples[0]
	s.Accel.X = nan64()
	bin := wire.AppendSampleBinary(wire.AppendBinaryHeader(nil), s)
	resp, err := http.Post(base+"/v1/sessions/s/samples", wire.ContentTypeBinary, bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Errorf("non-finite sample with conditioning = %d (%s), want 200", resp.StatusCode, body)
	}
}

// TestE2EMetaEndpoints covers /healthz, /readyz, /version and the
// client's helpers for them.
func TestE2EMetaEndpoints(t *testing.T) {
	_, base := startServer(t, server.Config{SampleRate: 50, Version: "test-build-1"})
	c, err := client.Dial(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Healthy(ctx); err != nil {
		t.Errorf("Healthy: %v", err)
	}
	v, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != "test-build-1" {
		t.Errorf("Version = %q, want test-build-1", v)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d, want 200", resp.StatusCode)
	}
}
