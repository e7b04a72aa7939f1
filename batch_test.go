package ptrack

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

func walkingTraces(t testing.TB, n int, seconds float64) []*Trace {
	t.Helper()
	out := make([]*Trace, n)
	for i := range out {
		cfg := DefaultSimConfig()
		cfg.Seed = int64(i + 1)
		rec, err := Simulate(DefaultSimProfile(), cfg,
			[]SimSegment{{Activity: ActivityWalking, Duration: seconds}})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rec.Trace
	}
	return out
}

func TestBatchProcessMatchesSerial(t *testing.T) {
	p := DefaultSimProfile()
	opts := []Option{WithProfile(p.ArmLength, p.LegLength, p.K)}
	traces := walkingTraces(t, 6, 20)

	tk, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(traces))
	for i, tr := range traces {
		if want[i], err = tk.Process(tr); err != nil {
			t.Fatal(err)
		}
	}

	items, err := BatchProcess(context.Background(), traces, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("trace %d: %v", i, it.Err)
		}
		if !reflect.DeepEqual(it.Result, want[i]) {
			t.Errorf("trace %d: batch result differs from serial Tracker.Process", i)
		}
	}
}

func TestBatchProcessSentinels(t *testing.T) {
	good := walkingTraces(t, 1, 10)[0]
	bad := &Trace{SampleRate: math.NaN(), Samples: good.Samples}
	items, err := BatchProcess(context.Background(), []*Trace{good, nil, bad})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil {
		t.Errorf("good trace failed: %v", items[0].Err)
	}
	if !errors.Is(items[1].Err, ErrEmptyTrace) {
		t.Errorf("nil trace error = %v, want ErrEmptyTrace", items[1].Err)
	}
	if !errors.Is(items[2].Err, ErrInvalidSampleRate) {
		t.Errorf("NaN-rate error = %v, want ErrInvalidSampleRate", items[2].Err)
	}
}

func TestBatchProcessCancellation(t *testing.T) {
	traces := walkingTraces(t, 2, 5)
	wide := make([]*Trace, 32)
	for i := range wide {
		wide[i] = traces[i%2]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := BatchProcess(ctx, wide)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sawCancelled := false
	for _, it := range items {
		if errors.Is(it.Err, context.Canceled) {
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Error("no item carries context.Canceled")
	}
}

func TestConstructorSentinels(t *testing.T) {
	if _, err := New(WithProfile(-1, 0.9, 2.3)); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("New error = %v, want ErrInvalidProfile", err)
	}
	if _, err := New(WithProfile(math.NaN(), 0.9, 2.3)); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("New NaN-profile error = %v, want ErrInvalidProfile", err)
	}
	if _, err := NewOnline(0); !errors.Is(err, ErrInvalidSampleRate) {
		t.Errorf("NewOnline error = %v, want ErrInvalidSampleRate", err)
	}
	if _, err := NewOnline(100, WithProfile(0, 0, 0)); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("NewOnline profile error = %v, want ErrInvalidProfile", err)
	}
	if _, err := NewPool(4, WithProfile(-1, 0.9, 2.3)); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("NewPool error = %v, want ErrInvalidProfile", err)
	}
	if _, err := NewSessionHub(math.Inf(1)); !errors.Is(err, ErrInvalidSampleRate) {
		t.Errorf("NewSessionHub error = %v, want ErrInvalidSampleRate", err)
	}
	if _, err := NewSessionHub(math.Inf(1), WithEventHook(func(string, Event) {})); !errors.Is(err, ErrInvalidSampleRate) {
		t.Errorf("NewSessionHub with event hook error = %v, want ErrInvalidSampleRate", err)
	}

	tk, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Process(nil); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Process(nil) = %v, want ErrEmptyTrace", err)
	}
	if _, err := tk.Process(&Trace{}); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Process(empty) = %v, want ErrEmptyTrace", err)
	}
}

func TestSessionHubMatchesOnline(t *testing.T) {
	tr := walkingTraces(t, 1, 30)[0]

	on, err := NewOnline(tr.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		on.Push(s)
	}
	on.Flush()
	want := on.Steps()
	if want == 0 {
		t.Fatal("online tracker counted no steps")
	}

	var mu sync.Mutex
	steps := make(map[string]int)
	hub, err := NewSessionHub(tr.SampleRate, WithEventHook(func(session string, ev Event) {
		mu.Lock()
		steps[session] += ev.StepsAdded
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 4
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, s := range tr.Samples {
				for {
					err := hub.Push(id, s)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrSessionQueueFull) {
						t.Errorf("session %s: %v", id, err)
						return
					}
				}
			}
		}(fmt.Sprintf("u%d", i))
	}
	wg.Wait()
	if n := hub.ActiveSessions(); n != sessions {
		t.Errorf("ActiveSessions() = %d, want %d", n, sessions)
	}
	hub.Close()
	if err := hub.Push("late", tr.Samples[0]); !errors.Is(err, ErrHubClosed) {
		t.Errorf("Push after Close = %v, want ErrHubClosed", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for id, n := range steps {
		if n != want {
			t.Errorf("session %s: %d steps, online tracker %d", id, n, want)
		}
	}
}

func TestOnlineAdaptiveThresholdOption(t *testing.T) {
	tr := walkingTraces(t, 1, 60)[0]
	on, err := NewOnline(tr.SampleRate, WithAdaptiveThreshold())
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewOnline(tr.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		on.Push(s)
		fixed.Push(s)
	}
	on.Flush()
	fixed.Flush()
	if on.Steps() == 0 {
		t.Error("adaptive online tracker counted no steps")
	}
	// Clean walking must count comparably under both thresholds (the
	// adaptive δ is clamped to [0.5, 2]× the paper value).
	lo, hi := fixed.Steps()*8/10, fixed.Steps()*12/10
	if on.Steps() < lo || on.Steps() > hi {
		t.Errorf("adaptive steps = %d, fixed = %d", on.Steps(), fixed.Steps())
	}
}
