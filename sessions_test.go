package ptrack

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// pushRetry pushes one sample, retrying full-queue backpressure so the
// whole trace lands.
func pushRetry(t *testing.T, hub *SessionHub, id string, s Sample) {
	t.Helper()
	for {
		err := hub.Push(id, s)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrSessionQueueFull) {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSessionHubDurableAcrossRecycle proves the facade wiring end to
// end: a hub with a session store is closed mid-stream, a new hub on
// the same store finishes the trace, and the step totals continue
// instead of resetting.
func TestSessionHubDurableAcrossRecycle(t *testing.T) {
	tr := walkingTraces(t, 1, 30)[0]
	st := NewMemSessionStore()
	cut := len(tr.Samples) / 2

	var mu sync.Mutex
	var events []Event
	newHub := func() *SessionHub {
		hub, err := NewSessionHub(tr.SampleRate,
			WithSessionStore(st),
			WithEventHook(func(session string, ev Event) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}))
		if err != nil {
			t.Fatal(err)
		}
		return hub
	}

	hub := newHub()
	for _, s := range tr.Samples[:cut] {
		pushRetry(t, hub, "walker", s)
	}
	hub.Close()
	mu.Lock()
	firstGen := len(events)
	mu.Unlock()
	if firstGen == 0 {
		t.Fatal("no events before the recycle")
	}

	hub = newHub()
	for _, s := range tr.Samples[cut:] {
		pushRetry(t, hub, "walker", s)
	}
	hub.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(events) == firstGen {
		t.Fatal("no events after the recycle")
	}
	total, last := 0, 0
	for _, ev := range events {
		total += ev.StepsAdded
		if ev.TotalSteps < last {
			t.Fatalf("TotalSteps went backwards across recycle: %d after %d", ev.TotalSteps, last)
		}
		last = ev.TotalSteps
	}
	if total != last {
		t.Fatalf("sum of StepsAdded = %d but final TotalSteps = %d", total, last)
	}
}

// TestSessionHubEventHook pins WithEventHook: the hook receives every
// session's events.
func TestSessionHubEventHook(t *testing.T) {
	tr := walkingTraces(t, 1, 20)[0]
	var mu sync.Mutex
	steps := 0
	hub, err := NewSessionHub(tr.SampleRate, WithEventHook(func(session string, ev Event) {
		mu.Lock()
		steps += ev.StepsAdded
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Samples {
		pushRetry(t, hub, "hooked", s)
	}
	hub.Close()
	mu.Lock()
	defer mu.Unlock()
	if steps == 0 {
		t.Fatal("event hook delivered no events")
	}
}
