package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ptrack/internal/obs"
)

// TestHubConcurrentEvictionAndDropAccounting hammers a hub from
// concurrent pushers (tiny queues, so pushers outrun the DSP) while a
// goroutine keeps evicting their sessions, so removal races enqueue and
// evicted sessions are re-created by the next push. It checks the
// accounting invariants that back the serving layer's backpressure
// responses: every ErrQueueFull seen by a caller is counted by the drop
// metric, and after Close the active-sessions gauge returns to zero
// with OnSessionEnd fired exactly once per opened session. Run under
// -race via `make race`, this doubles as the hub's data-race
// regression test.
func TestHubConcurrentEvictionAndDropAccounting(t *testing.T) {
	tr := walkingTrace(t, 5)

	reg := obs.NewRegistry()
	hooks := obs.NewHooks(reg)
	var sessionEnds atomic.Int64
	cfg := hubConfig(tr)
	cfg.Hooks = hooks
	cfg.QueueSize = 8 // small enough that pushers outrun the DSP
	cfg.IdleTimeout = -1
	cfg.OnSessionEnd = func(string) { sessionEnds.Add(1) }
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const pushers = 16
	id := func(i int) string { return fmt.Sprintf("user-%d", i%pushers) }

	// The evictor removes sessions round-robin until the pushers finish.
	// Pushers wait at their halfway mark for its first eviction, so at
	// least one removal provably races the remaining pushes.
	var evicted atomic.Int64
	firstEvict := make(chan struct{})
	stop, evictorDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(evictorDone)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if h.Evict(id(k)) {
				if evicted.Add(1) == 1 {
					close(firstEvict)
				}
			} else {
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	var callerDrops atomic.Int64
	for i := 0; i < pushers; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for j, s := range tr.Samples {
				if j == len(tr.Samples)/2 {
					<-firstEvict
				}
				switch err := h.Push(id, s); {
				case err == nil:
				case errors.Is(err, ErrQueueFull):
					callerDrops.Add(1)
				default:
					t.Errorf("session %s: %v", id, err)
					return
				}
			}
		}(id(i))
	}
	wg.Wait()
	close(stop)
	<-evictorDone

	live := h.Len()
	h.Close()

	dropped := reg.Counter("ptrack_session_dropped_samples_total", "")
	if got, want := int64(dropped.Value()), callerDrops.Load(); got != want {
		t.Errorf("drop counter = %d, want %d (one per ErrQueueFull)", got, want)
	}
	if callerDrops.Load() == 0 {
		t.Error("no queue-full drops observed; queue too large for this test to bite")
	}
	active := reg.Gauge("ptrack_sessions_active", "")
	if got := active.Value(); got != 0 {
		t.Errorf("active-sessions gauge = %v after Close, want 0", got)
	}
	// Every opened session ended exactly once: either by a successful
	// Evict or, still live at the end, by Close.
	if got, want := sessionEnds.Load(), evicted.Load()+int64(live); got != want {
		t.Errorf("OnSessionEnd fired %d times, want %d (%d evicted + %d live at Close)",
			got, want, evicted.Load(), live)
	}

	// Post-Close pushes must fail closed, not hang or panic.
	if err := h.Push("late", tr.Samples[0]); !errors.Is(err, ErrHubClosed) {
		t.Errorf("Push after Close = %v, want ErrHubClosed", err)
	}
}
