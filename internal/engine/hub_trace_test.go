package engine

import (
	"context"
	"testing"

	"ptrack/internal/condition"
	"ptrack/internal/gaitsim"
	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/stream"
)

// TestHubTracedBlockSpans pins the traced drain path: a sampled,
// conditioned session fed a faulted trace must describe exactly the
// blocks its run loop drained — one tracker.push span per block, the
// events parented under it, and a measured condition child.
func TestHubTracedBlockSpans(t *testing.T) {
	tr := gaitsim.InjectFaults(walkingTrace(t, 30), gaitsim.FaultsAtSeverity(0.5, 7))
	ring := tracing.NewRing(1 << 16)
	tracer := tracing.New(tracing.Config{Service: "test", SampleRate: 1, Exporter: ring})
	cfg := hubConfig(tr)
	cfg.Stream.Condition = &condition.StreamConfig{}
	cfg.QueueSize = len(tr.Samples) + 1
	cfg.Hooks = obs.NewHooks(obs.NewRegistry()).WithTracer(tracer)
	events := 0
	cfg.OnEvent = func(string, stream.Event, tracing.SpanContext) { events++ } // one session goroutine
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, root := tracer.Start(context.Background(), "test.root")
	defer root.End()

	// Attach the trace before the first sample so every block is traced.
	h.mu.Lock()
	h.startSessionLocked("traced")
	h.mu.Unlock()
	h.SetSessionTrace("traced", root.Context())
	pushAll(t, h, "traced", tr)
	h.End("traced")
	h.Close()

	pushes := map[tracing.SpanID]*tracing.Span{}
	for _, s := range ring.Spans() {
		if s.Name() == "tracker.push" {
			pushes[s.Context().SpanID] = s
		}
	}
	var drained int64
	for _, s := range pushes {
		n := s.AttrInt("samples")
		if n > stream.BlockSamples {
			t.Errorf("tracker.push covers %d samples, want <= %d", n, stream.BlockSamples)
		}
		drained += n
	}
	if drained != int64(len(tr.Samples)) {
		t.Errorf("tracker.push samples sum to %d, want %d drained", drained, len(tr.Samples))
	}

	emits, measured := 0, 0
	for _, s := range ring.Spans() {
		switch s.Name() {
		case "event.emit":
			emits++
			if pushes[s.Parent()] == nil {
				t.Errorf("event.emit parent %s is not a tracker.push span", s.Parent())
			}
		case "condition":
			parent := pushes[s.Parent()]
			if parent == nil {
				t.Fatalf("condition parent %s is not a tracker.push span", s.Parent())
			}
			if d := s.Duration(); d > 0 && d <= parent.Duration() {
				measured++
			}
		}
	}
	if emits == 0 || emits != events {
		t.Errorf("%d event.emit spans for %d delivered events", emits, events)
	}
	if measured == 0 {
		t.Error("no condition span with a positive duration within its parent's")
	}
}
