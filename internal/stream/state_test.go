package stream

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"ptrack/internal/condition"
	"ptrack/internal/gaitsim"
	"ptrack/internal/statecodec"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// pushSplitEquiv is the snapshot→restore equivalence oracle: an
// uninterrupted tracker consumes the whole trace, while a second
// tracker is snapshotted at cutAt samples and restored into a third,
// freshly constructed one that consumes the rest. Both runs must emit
// element-wise identical events at every push and at flush.
func pushSplitEquiv(t *testing.T, name string, cfg Config, tr *trace.Trace, cutAt int) {
	t.Helper()
	whole, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	first, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	if cutAt > len(tr.Samples) {
		cutAt = len(tr.Samples)
	}
	for i, s := range tr.Samples[:cutAt] {
		got := first.Push(s)
		want := whole.Push(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pre-cut divergence at sample %d:\n got %+v\nwant %+v", name, i, got, want)
		}
	}

	blob := first.Snapshot(nil)
	resumed, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	if err := resumed.Restore(blob); err != nil {
		t.Fatalf("%s: Restore: %v", name, err)
	}
	if resumed.Steps() != whole.Steps() {
		t.Fatalf("%s: restored steps %d, want %d", name, resumed.Steps(), whole.Steps())
	}

	for i, s := range tr.Samples[cutAt:] {
		got := resumed.Push(s)
		want := whole.Push(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: post-restore divergence at sample %d:\n got %+v\nwant %+v", name, cutAt+i, got, want)
		}
	}
	got := resumed.Flush()
	want := whole.Flush()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: flush events diverge:\n got %+v\nwant %+v", name, got, want)
	}
	if resumed.Steps() != whole.Steps() {
		t.Fatalf("%s: final steps diverge: got %d want %d", name, resumed.Steps(), whole.Steps())
	}
}

// TestSnapshotRestoreEquivalenceActivities cuts every seed activity
// mid-stream: the restored tracker must be indistinguishable from the
// uninterrupted one on both gaits and every interference class.
func TestSnapshotRestoreEquivalenceActivities(t *testing.T) {
	p := gaitsim.DefaultProfile()
	for _, a := range equivActivities {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), a, 60)
			if err != nil {
				t.Fatal(err)
			}
			n := len(rec.Trace.Samples)
			// Cut mid-cycle, at a scan boundary's neighbourhood and near
			// the end — three different amounts of in-flight state.
			for _, cut := range []int{n / 3, n/2 + 7, n - 50} {
				pushSplitEquiv(t, fmt.Sprintf("%s@%d", a, cut), onlineConfig(p), rec.Trace, cut)
			}
		})
	}
}

// TestSnapshotRestoreEquivalenceVariants re-runs the cut under the
// configuration corners of the equivalence matrix: adaptive
// thresholding (history ring in flight), no stride profile, aggressive
// compaction, wide margins, a degenerate filter, and a mixed trace that
// crosses activity boundaries with pending stepping back-fill.
func TestSnapshotRestoreEquivalenceVariants(t *testing.T) {
	p := gaitsim.DefaultProfile()
	mixed, err := gaitsim.Simulate(p, gaitsim.DefaultConfig(), []gaitsim.Segment{
		{Activity: trace.ActivityWalking, Duration: 25},
		{Activity: trace.ActivityEating, Duration: 20},
		{Activity: trace.ActivityStepping, Duration: 25},
		{Activity: trace.ActivityIdle, Duration: 15},
		{Activity: trace.ActivityWalking, Duration: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}

	base := onlineConfig(p)
	variants := []struct {
		name string
		cfg  Config
		tr   *trace.Trace
	}{
		{"mixed", base, mixed.Trace},
		{"adaptive", func() Config { c := base; c.AdaptiveDelta = true; return c }(), mixed.Trace},
		{"no-profile", Config{SampleRate: 100}, walk.Trace},
		{"small-buffer", func() Config { c := base; c.BufferS = 6; return c }(), mixed.Trace},
		{"wide-margin", base, slowWalk(t)},
		{"invalid-cutoff", func() Config {
			c := base
			c.Segment.LowPassCutoffHz = 60 // ≥ Nyquist: pass-through smoothing, no biquad state
			return c
		}(), walk.Trace},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			n := len(v.tr.Samples)
			for _, cut := range []int{n / 4, n / 2, 3 * n / 4} {
				pushSplitEquiv(t, fmt.Sprintf("%s@%d", v.name, cut), v.cfg, v.tr, cut)
			}
		})
	}
}

// TestSnapshotRestoreEquivalenceRates moves the filter settle length and
// every sample-derived constant away from the seed's 100 Hz.
func TestSnapshotRestoreEquivalenceRates(t *testing.T) {
	p := gaitsim.DefaultProfile()
	for _, rate := range []float64{50, 200} {
		rate := rate
		t.Run(fmt.Sprintf("%.0fhz", rate), func(t *testing.T) {
			t.Parallel()
			simCfg := gaitsim.DefaultConfig()
			simCfg.SampleRate = rate
			rec, err := gaitsim.SimulateActivity(p, simCfg, trace.ActivityWalking, 40)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				SampleRate: rate,
				Profile: &stride.Config{
					ArmLength: p.ArmLength,
					LegLength: p.LegLength,
					K:         p.K,
				},
			}
			n := len(rec.Trace.Samples)
			pushSplitEquiv(t, fmt.Sprintf("%.0fhz", rate), cfg, rec.Trace, n/2)
		})
	}
}

// TestSnapshotRestoreEquivalenceConditioned cuts a defective stream with
// the online conditioner engaged, so the reorder window and grid anchor
// are captured mid-flight.
func TestSnapshotRestoreEquivalenceConditioned(t *testing.T) {
	p := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}
	faulty := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.3, 1))
	cfg := onlineConfig(p)
	cfg.Condition = &condition.StreamConfig{}
	n := len(faulty.Samples)
	for _, cut := range []int{n / 3, n / 2, 2 * n / 3} {
		pushSplitEquiv(t, fmt.Sprintf("conditioned@%d", cut), cfg, faulty, cut)
	}
}

// TestRestoreRejectsBadBlobs pins the fail-loudly contract: corruption,
// wrong versions and mismatched configurations are all refused, and a
// refused restore leaves the tracker untouched and usable.
func TestRestoreRejectsBadBlobs(t *testing.T) {
	p := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := onlineConfig(p)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Trace.Samples[:len(rec.Trace.Samples)/2] {
		src.Push(s)
	}
	blob := src.Snapshot(nil)

	fresh := func() *Tracker {
		tk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	t.Run("corrupt", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x10
		if err := fresh().Restore(bad); !errors.Is(err, statecodec.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := fresh().Restore(blob[:len(blob)/2]); !errors.Is(err, statecodec.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := fresh().Restore(nil); !errors.Is(err, statecodec.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		e := statecodec.NewEnc(nil, snapVersion+1)
		e.F64(cfg.SampleRate)
		if err := fresh().Restore(e.Finish()); !errors.Is(err, statecodec.ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})
	t.Run("wrong-rate", func(t *testing.T) {
		other := cfg
		other.SampleRate = 200
		tk, err := New(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Restore(blob); err == nil {
			t.Fatal("restore into a 200 Hz tracker accepted a 100 Hz snapshot")
		}
	})
	t.Run("conditioning-mismatch", func(t *testing.T) {
		other := cfg
		other.Condition = &condition.StreamConfig{}
		tk, err := New(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Restore(blob); err == nil {
			t.Fatal("conditioned tracker accepted an unconditioned snapshot")
		}
	})
	t.Run("adaptive-mismatch", func(t *testing.T) {
		other := cfg
		other.AdaptiveDelta = true
		tk, err := New(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Restore(blob); err == nil {
			t.Fatal("adaptive tracker accepted a fixed-threshold snapshot")
		}
	})
	t.Run("failed-restore-leaves-tracker-usable", func(t *testing.T) {
		tk := fresh()
		bad := append([]byte(nil), blob...)
		bad[len(bad)-1] ^= 0xff
		if err := tk.Restore(bad); err == nil {
			t.Fatal("corrupt blob accepted")
		}
		// The untouched tracker must still process a stream normally,
		// matching a never-restored tracker event for event.
		ref := fresh()
		for i, s := range rec.Trace.Samples {
			if got, want := tk.Push(s), ref.Push(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("post-failed-restore divergence at sample %d", i)
			}
		}
	})
}

// TestSnapshotAppendsToDst pins the alloc-free checkpoint contract: a
// recycled buffer with capacity is reused, not reallocated.
func TestSnapshotAppendsToDst(t *testing.T) {
	p := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 20)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := New(onlineConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Trace.Samples {
		tk.Push(s)
	}
	first := tk.Snapshot(nil)
	buf := make([]byte, 0, 2*len(first))
	second := tk.Snapshot(buf)
	if &second[0] != &buf[:1][0] {
		t.Error("Snapshot reallocated despite sufficient dst capacity")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("consecutive snapshots of an untouched tracker differ")
	}
}

// goldenCut is where testdata/snapshot_v1.bin was taken: 322 samples
// into the default 60 s stepping trace, with two stepping cycles
// (t = 1.67 s and 2.78 s) pending streak confirmation.
const goldenCut = 322

// TestSnapshotGoldenRoundTrip pins the snapshot layout against a blob
// written by an earlier build (adaptive δ, input conditioning and a
// stride profile, cut mid-streak): restoring it and snapshotting again
// must reproduce it byte for byte, so state directories written by
// older binaries keep resuming. The resumed tracker must also back-fill
// the pending cycles it restored and land on the uninterrupted total.
func TestSnapshotGoldenRoundTrip(t *testing.T) {
	golden, err := os.ReadFile("testdata/snapshot_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	p := gaitsim.DefaultProfile()
	cfg := onlineConfig(p)
	cfg.AdaptiveDelta = true
	cfg.Condition = &condition.StreamConfig{}
	tk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Restore(golden); err != nil {
		t.Fatal(err)
	}
	if got := tk.Snapshot(nil); !bytes.Equal(got, golden) {
		t.Fatalf("round-tripped snapshot differs from the golden blob (%d vs %d bytes)", len(got), len(golden))
	}

	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityStepping, 60)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Trace.Samples {
		whole.Push(s)
	}
	whole.Flush()
	backfilled := map[float64]bool{}
	for _, s := range rec.Trace.Samples[goldenCut:] {
		for _, ev := range tk.Push(s) {
			if ev.StepsAdded == 2 && (ev.T == 1.67 || ev.T == 2.78) {
				backfilled[ev.T] = true
			}
		}
	}
	tk.Flush()
	if len(backfilled) != 2 {
		t.Errorf("restored pending cycles back-filled at %v, want t=1.67 and t=2.78", backfilled)
	}
	if tk.Steps() != whole.Steps() {
		t.Errorf("resumed total %d steps, uninterrupted %d", tk.Steps(), whole.Steps())
	}
}
