package stream

import (
	"fmt"
	"reflect"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// equivActivities is the seed activity set the incremental front end must
// reproduce the reference on: both gaits plus every interference class
// exercises accepted cycles, rejected triples, idle compaction and the
// stepping back-fill path.
var equivActivities = []trace.Activity{
	trace.ActivityWalking,
	trace.ActivityStepping,
	trace.ActivityJogging,
	trace.ActivityEating,
	trace.ActivityPoker,
	trace.ActivityPhoto,
	trace.ActivityGaming,
	trace.ActivitySwinging,
	trace.ActivitySpoofing,
	trace.ActivityIdle,
}

// pushBoth feeds the same trace to the incremental tracker and the
// reference and requires element-wise identical events after every single
// push and at flush.
func pushBoth(t *testing.T, name string, cfg Config, tr *trace.Trace) {
	t.Helper()
	tk, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	ref, err := newRefTracker(cfg)
	if err != nil {
		t.Fatalf("%s: newRefTracker: %v", name, err)
	}
	for i, s := range tr.Samples {
		got := tk.Push(s)
		want := ref.Push(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: events diverge at sample %d:\n got %+v\nwant %+v", name, i, got, want)
		}
	}
	got := tk.Flush()
	want := ref.Flush()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: flush events diverge:\n got %+v\nwant %+v", name, got, want)
	}
	if tk.Steps() != ref.Steps() {
		t.Fatalf("%s: steps diverge: got %d want %d", name, tk.Steps(), ref.Steps())
	}
}

// slowWalk is a 60 s walk at 1.1 steps/s. The classification margin is a
// fixed fraction of the cycle length, so its ~1.8 s cycles carry margins
// about 60% wider in samples than the default walker's.
func slowWalk(t *testing.T) *trace.Trace {
	t.Helper()
	p := gaitsim.DefaultProfile()
	p.StepFrequency = 1.1
	rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace
}

// TestIncrementalMatchesReference is the front-end equivalence suite: for
// every seed activity the incremental tracker must emit exactly the
// events the whole-buffer reference emits, push for push.
func TestIncrementalMatchesReference(t *testing.T) {
	p := gaitsim.DefaultProfile()
	for _, a := range equivActivities {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), a, 60)
			if err != nil {
				t.Fatal(err)
			}
			pushBoth(t, a.String(), onlineConfig(p), rec.Trace)
		})
	}
}

// TestIncrementalMatchesReferenceVariants re-runs the equivalence check
// under the configuration corners: adaptive thresholding, no stride
// profile, a small buffer that compacts aggressively, and a mixed trace
// that crosses activity boundaries (gap detection + back-fill).
func TestIncrementalMatchesReferenceVariants(t *testing.T) {
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
			c.Segment.LowPassCutoffHz = 60 // ≥ Nyquist: smoothing degrades to pass-through
			return c
		}(), walk.Trace},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			pushBoth(t, v.name, v.cfg, v.tr)
		})
	}
}

// TestIncrementalMatchesReferenceRates covers sample rates away from the
// seed's 100 Hz, which move the filter settle length and every
// sample-derived constant.
func TestIncrementalMatchesReferenceRates(t *testing.T) {
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
			pushBoth(t, fmt.Sprintf("%.0fhz", rate), cfg, rec.Trace)
		})
	}
}
