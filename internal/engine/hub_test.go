package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ptrack/internal/gaitsim"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
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

func hubConfig(tr *trace.Trace) HubConfig {
	return HubConfig{Stream: stream.Config{SampleRate: tr.SampleRate}}
}

// pushAll pushes a whole trace into one session, retrying full-queue
// drops so every sample lands (the DSP drains fast; drops only happen
// when the pusher outruns it).
func pushAll(t testing.TB, h *Hub, id string, tr *trace.Trace) {
	t.Helper()
	for _, s := range tr.Samples {
		for {
			err := h.Push(id, s)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("session %s: %v", id, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestHubConcurrentSessions(t *testing.T) {
	tr := walkingTrace(t, 30)

	// Serial reference: one plain streaming tracker.
	ref, err := stream.New(stream.Config{SampleRate: tr.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := 0
	for _, s := range tr.Samples {
		for _, ev := range ref.Push(s) {
			wantSteps += ev.StepsAdded
		}
	}
	for _, ev := range ref.Flush() {
		wantSteps += ev.StepsAdded
	}
	if wantSteps == 0 {
		t.Fatal("reference tracker counted no steps")
	}

	var mu sync.Mutex
	steps := make(map[string]int)
	cfg := hubConfig(tr)
	cfg.OnEvent = func(session string, ev stream.Event, _ tracing.SpanContext) {
		mu.Lock()
		steps[session] += ev.StepsAdded
		mu.Unlock()
	}
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			pushAll(t, h, id, tr)
		}(fmt.Sprintf("user-%d", i))
	}
	wg.Wait()
	if got := h.Len(); got != sessions {
		t.Errorf("Len() = %d, want %d", got, sessions)
	}
	h.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(steps) != sessions {
		t.Fatalf("events from %d sessions, want %d", len(steps), sessions)
	}
	for id, n := range steps {
		if n != wantSteps {
			t.Errorf("session %s: %d steps, serial tracker %d", id, n, wantSteps)
		}
	}
}

func TestHubQueueFullDrops(t *testing.T) {
	tr := walkingTrace(t, 5)
	cfg := hubConfig(tr)
	cfg.QueueSize = 4
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Hammer one session as fast as possible; with a 4-deep queue some
	// pushes must report ErrQueueFull rather than blocking or panicking.
	drops := 0
	for i := 0; i < 4; i++ {
		for _, s := range tr.Samples {
			if err := h.Push("burst", s); err != nil {
				if !errors.Is(err, ErrQueueFull) {
					t.Fatal(err)
				}
				drops++
			}
		}
	}
	t.Logf("%d drops over %d pushes", drops, 4*len(tr.Samples))
}

func TestHubEndFlushes(t *testing.T) {
	tr := walkingTrace(t, 20)
	var mu sync.Mutex
	steps := 0
	cfg := hubConfig(tr)
	cfg.OnEvent = func(_ string, ev stream.Event, _ tracing.SpanContext) {
		mu.Lock()
		steps += ev.StepsAdded
		mu.Unlock()
	}
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pushAll(t, h, "solo", tr)
	h.End("solo") // blocks until trailing events delivered
	mu.Lock()
	got := steps
	mu.Unlock()
	if got == 0 {
		t.Error("End delivered no steps")
	}
	if h.Len() != 0 {
		t.Errorf("Len() = %d after End", h.Len())
	}
	h.End("solo") // unknown session: no-op
}

func TestHubIdleEviction(t *testing.T) {
	tr := walkingTrace(t, 5)
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	cfg := hubConfig(tr)
	cfg.IdleTimeout = time.Minute
	cfg.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := h.Push("idler", tr.Samples[0]); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Fatalf("Len() = %d", h.Len())
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	h.evictIdle()
	if h.Len() != 0 {
		t.Errorf("idle session survived eviction: Len() = %d", h.Len())
	}
}

func TestHubClosed(t *testing.T) {
	tr := walkingTrace(t, 5)
	h, err := NewHub(hubConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Push("s", tr.Samples[0]); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h.Close() // idempotent
	if err := h.Push("s", tr.Samples[0]); !errors.Is(err, ErrHubClosed) {
		t.Errorf("Push after Close = %v, want ErrHubClosed", err)
	}
}

func TestHubRejectsBadTemplate(t *testing.T) {
	if _, err := NewHub(HubConfig{Stream: stream.Config{SampleRate: -1}}); err == nil {
		t.Error("negative sample rate accepted")
	}
}
