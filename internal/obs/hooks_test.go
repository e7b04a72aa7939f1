package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilHooksSafe pins the contract the pipelines rely on: every hook
// method is a no-op on a nil receiver.
func TestNilHooksSafe(t *testing.T) {
	var h *Hooks
	h.StageDone(StageSegment, time.Second)
	h.Cycle(2, 1.0, 0.05, 0.3, true, 2)
	h.AddSteps(4)
	h.TraceProcessed()
	h.SamplesIngested(1, 100)
	h.SamplesDropped(10)
	h.EventEmitted(1.2)
	if got := h.WithCycleLogger(slog.Default()); got != nil {
		t.Errorf("WithCycleLogger on nil = %v, want nil", got)
	}
}

func TestHooksRecord(t *testing.T) {
	reg := NewRegistry()
	reg.GoRuntime = false
	h := NewHooks(reg)

	h.StageDone(StageSegment, 50*time.Millisecond)
	h.StageDone(StageSegment, 50*time.Millisecond)
	h.StageDone(StageIdentify, 10*time.Millisecond)
	h.Cycle(2, 1.0, 0.05, 0.4, true, 2)   // walking
	h.Cycle(1, 2.0, 0.01, -0.1, false, 0) // interference, offset not computable
	h.AddSteps(2)
	h.TraceProcessed()
	h.SamplesIngested(1, 512)
	h.SamplesDropped(64)
	h.EventEmitted(1.4)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ptrack_stage_calls_total{stage="segment"} 2`,
		`ptrack_stage_calls_total{stage="identify"} 1`,
		`ptrack_cycles_total{label="walking"} 1`,
		`ptrack_cycles_total{label="interference"} 1`,
		"ptrack_steps_total 2",
		"ptrack_traces_total 1",
		"ptrack_cycle_offset_count 1", // only the offsetOK cycle observed
		"ptrack_stream_samples_total 1",
		"ptrack_stream_dropped_samples_total 64",
		"ptrack_stream_buffer_samples 512",
		"ptrack_stream_event_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}
	if h.stageSeconds[StageSegment].Value() < 0.099 {
		t.Errorf("segment seconds = %v, want ~0.1", h.stageSeconds[StageSegment].Value())
	}
}

func TestSharedRegistryAccumulates(t *testing.T) {
	reg := NewRegistry()
	a := NewHooks(reg)
	b := NewHooks(reg)
	a.AddSteps(2)
	b.AddSteps(3)
	if got := a.steps.Value(); got != 5 {
		t.Errorf("shared steps counter = %v, want 5", got)
	}
}

func TestCycleLogger(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	h := NewHooks(reg).WithCycleLogger(NewLogger(&buf, slog.LevelDebug))
	h.Cycle(2, 12.5, 0.041, 0.8, true, 2)
	line := buf.String()
	for _, want := range []string{"msg=cycle", "label=walking", "offset=0.041", "steps_added=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("cycle log missing %q in %q", want, line)
		}
	}

	// Above Debug level the logger must stay silent.
	buf.Reset()
	h.WithCycleLogger(NewLogger(&buf, slog.LevelInfo))
	h.Cycle(2, 13.0, 0.041, 0.8, true, 2)
	if buf.Len() != 0 {
		t.Errorf("cycle logged at info level: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel should reject unknown levels")
	}
}

// TestConcurrentHooks drives every hook from several goroutines, as
// concurrent streaming trackers sharing one Hooks would (race detector
// coverage).
func TestConcurrentHooks(t *testing.T) {
	reg := NewRegistry()
	h := NewHooks(reg)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.SamplesIngested(1, j)
				h.StageDone(StageIdentify, time.Microsecond)
				h.Cycle(j%4, float64(j), 0.03, 0.1, j%2 == 0, 2)
				h.AddSteps(2)
				h.EventEmitted(1.0)
				h.SamplesDropped(1)
			}
		}()
	}
	wg.Wait()
	if got := h.steps.Value(); got != 4000 {
		t.Errorf("steps = %v, want 4000", got)
	}
	if got := h.samplesIn.Value(); got != 2000 {
		t.Errorf("samples = %v, want 2000", got)
	}
}
