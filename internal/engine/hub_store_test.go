package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/statecodec"
	"ptrack/internal/store"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// stepLog collects delivered events in order for one hub generation.
type stepLog struct {
	mu     sync.Mutex
	events []stream.Event
}

func (l *stepLog) hook(session string, ev stream.Event, _ tracing.SpanContext) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *stepLog) snapshot() []stream.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stream.Event(nil), l.events...)
}

// pushSamples pushes a sample slice into one session, retrying
// full-queue drops so every sample lands.
func pushSamples(t testing.TB, h *Hub, id string, samples []trace.Sample) {
	t.Helper()
	for _, s := range samples {
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

// TestHubCheckpointResume kills a hub mid-stream and replays the rest of
// the trace through a new hub sharing the same store: the session must
// resume (Restored in Stats), keep counting from where it left off, and
// never double-deliver — the cumulative TotalSteps stays monotonic
// across the restart and equals the sum of every delivered StepsAdded.
func TestHubCheckpointResume(t *testing.T) {
	tr := walkingTrace(t, 30)
	cut := len(tr.Samples) / 2
	st := store.NewMem()

	newGen := func(log *stepLog) *Hub {
		cfg := hubConfig(tr)
		cfg.Store = st
		cfg.OnEvent = log.hook
		h, err := NewHub(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	var logA stepLog
	hubA := newGen(&logA)
	pushSamples(t, hubA, "traveler", tr.Samples[:cut])
	hubA.Close() // flushes, then checkpoints the post-flush state
	stepsA := 0
	for _, ev := range logA.snapshot() {
		stepsA += ev.StepsAdded
	}
	if stepsA == 0 {
		t.Fatal("first generation delivered no steps; trace too short for the test")
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d snapshots after Close, want 1", st.Len())
	}

	var logB stepLog
	hubB := newGen(&logB)
	pushSamples(t, hubB, "traveler", tr.Samples[cut:])
	// The session must be marked as restored while still live.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats := hubB.Stats()
		if len(stats) == 1 && stats[0].Restored && stats[0].Steps >= int64(stepsA) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never reported as restored with carried-over steps: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	hubB.Close()

	// Continuity: TotalSteps is cumulative across both generations.
	total := 0
	last := 0
	for _, ev := range append(logA.snapshot(), logB.snapshot()...) {
		total += ev.StepsAdded
		if ev.TotalSteps < last {
			t.Fatalf("TotalSteps went backwards across restart: %d after %d", ev.TotalSteps, last)
		}
		last = ev.TotalSteps
	}
	if total != last {
		t.Fatalf("sum of StepsAdded = %d but final TotalSteps = %d (double delivery?)", total, last)
	}
	if last <= stepsA {
		t.Fatalf("second generation added no steps: final total %d, first generation %d", last, stepsA)
	}
}

// TestHubEndDeletesSnapshot proves End is terminal: the stored snapshot
// is removed, both for a live session and for one the hub has already
// evicted (dormant snapshot).
func TestHubEndDeletesSnapshot(t *testing.T) {
	tr := walkingTrace(t, 10)
	st := store.NewMem()
	cfg := hubConfig(tr)
	cfg.Store = st
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pushAll(t, h, "walker", tr)
	h.End("walker")
	if st.Len() != 0 {
		t.Fatalf("store holds %d snapshots after End, want 0", st.Len())
	}

	// Dormant snapshot: no live session, End still clears the store.
	if err := st.Save("ghost", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	h.End("ghost")
	if st.Len() != 0 {
		t.Fatalf("store holds %d snapshots after End of dormant session, want 0", st.Len())
	}
}

// TestHubPeriodicCheckpoint proves a long-lived session is checkpointed
// while still streaming, not only at eviction.
func TestHubPeriodicCheckpoint(t *testing.T) {
	tr := walkingTrace(t, 10)
	st := store.NewMem()
	cfg := hubConfig(tr)
	cfg.Store = st
	cfg.CheckpointInterval = 5 * time.Millisecond
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pushAll(t, h, "walker", tr)
	deadline := time.Now().Add(2 * time.Second)
	for st.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint appeared while the session was live")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h.Len() != 1 {
		t.Fatalf("session gone before Close: Len = %d", h.Len())
	}
}

// TestHubRestoreFailureStartsFresh proves a corrupt stored snapshot
// cannot take a session down: the restore fails, the session starts
// fresh and still counts steps.
func TestHubRestoreFailureStartsFresh(t *testing.T) {
	tr := walkingTrace(t, 15)
	st := store.NewMem()
	// A wrong-version blob with a valid CRC: decodes far enough to fail
	// only at the version check inside Tracker.Restore.
	if err := st.Save("walker", statecodec.NewEnc(nil, 250).Finish()); err != nil {
		t.Fatal(err)
	}

	var log stepLog
	cfg := hubConfig(tr)
	cfg.Store = st
	cfg.OnEvent = log.hook
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, h, "walker", tr)
	h.Close()

	steps := 0
	for _, ev := range log.snapshot() {
		steps += ev.StepsAdded
	}
	if steps == 0 {
		t.Fatal("session delivered no steps after failed restore")
	}
	// Close must have replaced the corrupt snapshot with a good one.
	blob, err := st.Load("walker")
	if err != nil {
		t.Fatalf("no snapshot after Close: %v", err)
	}
	fresh, err := stream.New(stream.Config{SampleRate: tr.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(blob); err != nil {
		t.Fatalf("snapshot written at Close does not restore: %v", err)
	}
}

// failStore is a SessionStore whose every operation fails — the
// degradation fixture: a hub in front of a dead store must keep
// serving fresh sessions and count the failures, never surface them to
// pushers.
type failStore struct {
	mu      sync.Mutex
	saves   int
	loads   int
	deletes int
}

var errStoreDown = errors.New("injected store outage")

func (f *failStore) Save(string, []byte) error {
	f.mu.Lock()
	f.saves++
	f.mu.Unlock()
	return errStoreDown
}

func (f *failStore) Load(string) ([]byte, error) {
	f.mu.Lock()
	f.loads++
	f.mu.Unlock()
	return nil, errStoreDown
}

func (f *failStore) Delete(string) error {
	f.mu.Lock()
	f.deletes++
	f.mu.Unlock()
	return errStoreDown
}

func (f *failStore) List() ([]string, error) { return nil, errStoreDown }

func (f *failStore) counts() (saves, loads, deletes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saves, f.loads, f.deletes
}

// TestHubStoreOutageDegradesGracefully pins the checkpoint degradation
// contract: with a store whose Save/Load/Delete all fail, sessions
// start fresh and deliver steps (no error ever reaches Push), the
// session is not marked restored, and every failed operation increments
// ptrack_session_checkpoints_total{op="error"}.
func TestHubStoreOutageDegradesGracefully(t *testing.T) {
	tr := walkingTrace(t, 15)
	fs := &failStore{}
	reg := obs.NewRegistry()

	var log stepLog
	cfg := hubConfig(tr)
	cfg.Store = fs
	cfg.Hooks = obs.NewHooks(reg)
	cfg.OnEvent = log.hook
	cfg.CheckpointInterval = 5 * time.Millisecond // exercise periodic saves too
	h, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pushSamples(t, h, "walker", tr.Samples[:len(tr.Samples)/2])
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats := h.Stats()
		if len(stats) == 1 && stats[0].Restored {
			t.Fatalf("session claims to be restored from a dead store: %+v", stats)
		}
		if len(stats) == 1 && stats[0].Steps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never delivered steps against a dead store: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pushSamples(t, h, "walker", tr.Samples[len(tr.Samples)/2:])
	h.Close() // epilogue checkpoint also fails — and must not block Close

	steps := 0
	for _, ev := range log.snapshot() {
		steps += ev.StepsAdded
	}
	if steps == 0 {
		t.Fatal("no steps delivered with a dead store")
	}

	// End of an unknown session tries the dormant-snapshot delete; with
	// the store down that is one more counted error, still no panic.
	h.End("ghost")

	saves, loads, deletes := fs.counts()
	if loads == 0 || saves == 0 || deletes == 0 {
		t.Fatalf("store ops not exercised: saves=%d loads=%d deletes=%d", saves, loads, deletes)
	}
	errCount := reg.Counter("ptrack_session_checkpoints_total",
		"Session-store operations performed by hub checkpointing, by op.", "op", "error").Value()
	if want := float64(saves + loads + deletes); errCount != want {
		t.Fatalf("ptrack_session_checkpoints_total{op=error} = %v, want %v (saves=%d loads=%d deletes=%d)",
			errCount, want, saves, loads, deletes)
	}
	for _, op := range []string{"save", "restore", "delete"} {
		if v := reg.Counter("ptrack_session_checkpoints_total",
			"Session-store operations performed by hub checkpointing, by op.", "op", op).Value(); v != 0 {
			t.Fatalf("ptrack_session_checkpoints_total{op=%s} = %v, want 0 during total outage", op, v)
		}
	}
}

// TestHubEvictCheckpointsForResume pins the migration primitive: Evict
// flushes and checkpoints without ending the session, so a second hub
// (the "new owner") resumes it from the shared store with monotonic
// TotalSteps.
func TestHubEvictCheckpointsForResume(t *testing.T) {
	tr := walkingTrace(t, 30)
	cut := len(tr.Samples) / 2
	st := store.NewMem()

	var logA stepLog
	cfgA := hubConfig(tr)
	cfgA.Store = st
	cfgA.OnEvent = logA.hook
	hubA, err := NewHub(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pushSamples(t, hubA, "mover", tr.Samples[:cut])
	if !hubA.Evict("mover") {
		t.Fatal("Evict reported the session as unknown")
	}
	if hubA.Evict("mover") {
		t.Fatal("second Evict claims the session was still live")
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d snapshots after Evict, want 1", st.Len())
	}

	var logB stepLog
	cfgB := hubConfig(tr)
	cfgB.Store = st
	cfgB.OnEvent = logB.hook
	hubB, err := NewHub(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	pushSamples(t, hubB, "mover", tr.Samples[cut:])
	hubB.Close()
	hubA.Close()

	total, last := 0, 0
	for _, ev := range append(logA.snapshot(), logB.snapshot()...) {
		total += ev.StepsAdded
		if ev.TotalSteps < last {
			t.Fatalf("TotalSteps went backwards across Evict handoff: %d after %d", ev.TotalSteps, last)
		}
		last = ev.TotalSteps
	}
	if total == 0 || total != last {
		t.Fatalf("step ledger inconsistent across handoff: sum=%d final=%d", total, last)
	}
}
