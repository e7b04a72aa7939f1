package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ptrack/internal/obs/tracing"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// pushAllBlocks pushes a whole trace through PushBlock in chunks drawn
// from rng, resuming from the accepted count on full-queue drops so
// every sample lands exactly once, in order.
func pushAllBlocks(t testing.TB, h *Hub, id string, tr *trace.Trace, rng *rand.Rand) {
	t.Helper()
	samples := tr.Samples
	for len(samples) > 0 {
		n := 1 + rng.Intn(2*stream.BlockSamples)
		if n > len(samples) {
			n = len(samples)
		}
		block := samples[:n]
		for len(block) > 0 {
			acc, err := h.PushBlock(id, block)
			block = block[acc:]
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("session %s: %v", id, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		samples = samples[n:]
	}
}

// TestHubPushBlockEquivalence drives concurrent sessions through the
// hub's block ingestion path (PushBlock enqueue + the run loop's greedy
// block drain) and requires the exact event sequence of a serial
// per-sample tracker from every session. Run under -race (make race)
// this also exercises the block path for data races.
func TestHubPushBlockEquivalence(t *testing.T) {
	tr := walkingTrace(t, 30)

	ref, err := stream.New(stream.Config{SampleRate: tr.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	var want []stream.Event
	for _, s := range tr.Samples {
		want = append(want, ref.Push(s)...)
	}
	want = append(want, ref.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference tracker emitted no events")
	}

	var mu sync.Mutex
	events := make(map[string][]stream.Event)
	cfg := hubConfig(tr)
	cfg.OnEvent = func(session string, ev stream.Event, _ tracing.SpanContext) {
		mu.Lock()
		events[session] = append(events[session], ev)
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
		go func(i int) {
			defer wg.Done()
			pushAllBlocks(t, h, fmt.Sprintf("user-%d", i), tr, rand.New(rand.NewSource(int64(i))))
		}(i)
	}
	wg.Wait()
	h.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(events) != sessions {
		t.Fatalf("events from %d sessions, want %d", len(events), sessions)
	}
	for id, got := range events {
		if len(got) != len(want) {
			t.Fatalf("session %s: %d events, serial tracker %d", id, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("session %s: event %d diverges:\n got %+v\nwant %+v", id, i, got[i], want[i])
			}
		}
	}
}

// TestHubPushBlockQueueFull pins the partial-acceptance contract: a
// block larger than the queue's free space reports how many samples
// were enqueued and ErrQueueFull for the dropped tail.
func TestHubPushBlockQueueFull(t *testing.T) {
	tr := walkingTrace(t, 5)
	cfg := hubConfig(tr)
	cfg.QueueSize = 4
	// Stall the drain goroutine behind a slow OnEvent? Simpler: fill the
	// queue faster than it drains by pushing one big block; with a queue
	// of 4 the tracker cannot possibly drain a few thousand samples
	// instantly, so acceptance must fall short at least once.
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	acc, err := h.PushBlock("s", tr.Samples)
	if err == nil {
		t.Fatalf("PushBlock accepted all %d samples through a queue of 4", len(tr.Samples))
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("PushBlock error = %v, want ErrQueueFull", err)
	}
	if acc < 1 || acc >= len(tr.Samples) {
		t.Fatalf("accepted %d of %d, want a partial prefix", acc, len(tr.Samples))
	}

	// Resuming from the accepted count eventually lands every sample.
	rest := tr.Samples[acc:]
	for len(rest) > 0 {
		n, err := h.PushBlock("s", rest)
		rest = rest[n:]
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if err != nil {
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Empty blocks are a no-op even for unknown sessions.
	if n, err := h.PushBlock("nope", nil); n != 0 || err != nil {
		t.Fatalf("empty PushBlock = (%d, %v), want (0, nil)", n, err)
	}
}
