package stream

import (
	"testing"

	"ptrack/internal/condition"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// Sub-10 Hz rates truncate the 0.1 s scan decimation (and, low enough,
// the peak refractory distance) to zero samples; the constructor must
// clamp the derived counts so the tracker still scans and decides.
func TestLowRateDerivedCountsClamped(t *testing.T) {
	for _, rate := range []float64{1, 5, 9.9} {
		tk, err := New(Config{SampleRate: rate})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if tk.scanEvery < 1 {
			t.Errorf("rate %v: scanEvery = %d, want >= 1", rate, tk.scanEvery)
		}
		if tk.minDistSamp < 1 {
			t.Errorf("rate %v: minDistSamp = %d, want >= 1", rate, tk.minDistSamp)
		}
		if tk.lookback < 1 {
			t.Errorf("rate %v: lookback = %d, want >= 1", rate, tk.lookback)
		}
	}
}

// A 1 Hz stream must scan (and terminate) rather than buffer forever
// with scanEvery = 0.
func TestLowRateStreamProgresses(t *testing.T) {
	tk, err := New(Config{SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tk.Push(trace.Sample{T: float64(i)})
	}
	tk.Flush()
	if tk.absCount != 100 {
		t.Fatalf("consumed %d of 100 samples", tk.absCount)
	}
}

// With Condition set, a defective stream (jitter, dropouts, duplicates,
// reordering, spikes) must still track steps close to the clean run,
// and the live report must tally the repairs.
func TestTrackerConditioningRepairsDefects(t *testing.T) {
	p := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(onlineConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, clean, rec.Trace)
	want := clean.Steps()
	if want == 0 {
		t.Fatal("clean run counted no steps")
	}

	defective := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.5, 11))
	cfg := onlineConfig(p)
	cfg.Condition = &condition.StreamConfig{}
	cond, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, cond, defective)

	rep := cond.ConditionReport()
	if rep == nil || rep.Defects() == 0 {
		t.Fatalf("conditioner found no defects: %+v", rep)
	}
	got := cond.Steps()
	if lo, hi := want*7/10, want*13/10; got < lo || got > hi {
		t.Errorf("conditioned defective stream counted %d steps, clean run %d (want within ±30%%)", got, want)
	}

	// The same defective stream without conditioning should do worse or,
	// at best, no better (NaN spikes poison the smoothing filter).
	raw, err := New(onlineConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, raw, defective)
	if rawDiff, condDiff := absDiff(raw.Steps(), want), absDiff(got, want); rawDiff < condDiff {
		t.Errorf("unconditioned run (%d steps) beat conditioned run (%d steps) against clean %d",
			raw.Steps(), got, want)
	}
}

// An unbridgeable gap must split the stream: the conditioner reports
// the split and the tracker still counts steps on both sides.
func TestTrackerConditioningSplitsLongGap(t *testing.T) {
	p := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Carve a 5 s hole out of the middle.
	tr := &trace.Trace{SampleRate: rec.Trace.SampleRate}
	for _, s := range rec.Trace.Samples {
		if s.T < 18 || s.T >= 23 {
			tr.Samples = append(tr.Samples, s)
		}
	}

	cfg := onlineConfig(p)
	cfg.Condition = &condition.StreamConfig{}
	tk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, tk, tr)

	rep := tk.ConditionReport()
	if rep == nil || rep.GapsSplit == 0 {
		t.Fatalf("5 s hole not reported as split: %+v", rep)
	}
	if tk.Steps() == 0 {
		t.Error("no steps counted across the split stream")
	}
}

// Flush can release a split: a stream that ends with a hole longer than
// the conditioner bridges, followed by fewer samples than its reorder
// window holds, keeps the hole pending until Flush. Flush must cut there
// and decide the cycles before the hole on what precedes it, then take
// the short tail, which holds no cycle — so the events equal those of
// the stream that stops at the hole, on the per-sample and the block
// path alike. The stream stops 15 samples after a cycle end, inside that
// cycle's trailing margin, so the cycle is decided on a short margin the
// tail would lengthen.
func TestFlushReleasesSplit(t *testing.T) {
	p := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := onlineConfig(p)
	cfg.Condition = &condition.StreamConfig{}
	full, _ := collectPush(t, cfg, rec.Trace)
	end := full[len(full)/2].T + 15/rec.Trace.SampleRate
	head := &trace.Trace{SampleRate: rec.Trace.SampleRate}
	for _, s := range rec.Trace.Samples {
		if s.T <= end {
			head.Samples = append(head.Samples, s)
		}
	}
	want, wantSteps := collectPush(t, cfg, head)
	if wantSteps == 0 {
		t.Fatal("the stream before the hole counted no steps")
	}

	// A jolt after the hole, which would land in that margin if it were
	// appended to the walk without the split.
	tail := &trace.Trace{SampleRate: head.SampleRate, Samples: append([]trace.Sample(nil), head.Samples...)}
	last := tail.Samples[len(tail.Samples)-1]
	for i := 1; i <= 3; i++ {
		s := last
		s.T += 5 + float64(i)/tail.SampleRate
		s.Accel.Z += 30
		tail.Samples = append(tail.Samples, s)
	}

	tk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for _, s := range tail.Samples {
		got = append(got, tk.Push(s)...)
	}
	if n := tk.ConditionReport().GapsSplit; n != 0 {
		t.Fatalf("%d splits before Flush, want the hole still in the reorder window", n)
	}
	got = append(got, tk.Flush()...)
	if n := tk.ConditionReport().GapsSplit; n != 1 {
		t.Fatalf("Flush released %d splits, want 1", n)
	}
	requireSameEvents(t, "push", got, want, tk.Steps(), wantSteps)

	blocks, blockSteps := collectPushBlock(t, cfg, tail, func() int { return BlockSamples })
	requireSameEvents(t, "block", blocks, want, blockSteps, wantSteps)
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
