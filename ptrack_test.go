package ptrack

import (
	"bytes"
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(WithProfile(-1, 0.9, 2.3)); err == nil {
		t.Error("invalid profile should fail")
	}
	if _, err := New(); err != nil {
		t.Errorf("counting-only tracker failed: %v", err)
	}
}

func TestEndToEndWalking(t *testing.T) {
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityWalking, Duration: 60}})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSimProfile()
	tk, err := New(WithProfile(p.ArmLength, p.LegLength, p.K))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.1*float64(truth) {
		t.Errorf("steps = %d, truth %d", res.Steps, truth)
	}
	if res.Distance <= 0 {
		t.Error("no distance estimated")
	}
	if len(res.Cycles) == 0 || len(res.StepLog) != res.Steps {
		t.Errorf("diagnostics inconsistent: %d cycles, %d log, %d steps",
			len(res.Cycles), len(res.StepLog), res.Steps)
	}
}

func TestEndToEndInterferenceRejected(t *testing.T) {
	tk, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Activity{ActivityEating, ActivitySpoofing} {
		rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
			[]SimSegment{{Activity: a, Duration: 60}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Process(rec.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps > 4 {
			t.Errorf("%v: %d spurious steps", a, res.Steps)
		}
	}
}

func TestTrainProfileAndTrack(t *testing.T) {
	cal, err := Simulate(DefaultSimProfile(), DefaultSimConfig(), []SimSegment{
		{Activity: ActivityWalking, Duration: 60},
		{Activity: ActivityStepping, Duration: 30},
		{Activity: ActivityWalking, Duration: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := TrainProfile(cal.Trace, cal.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}
	if profile.ArmLength <= 0 || profile.LegLength <= 0 || profile.K <= 0 {
		t.Fatalf("bad trained profile: %+v", profile)
	}

	cfg := DefaultSimConfig()
	cfg.Seed = 42
	rec, err := Simulate(DefaultSimProfile(), cfg,
		[]SimSegment{{Activity: ActivityWalking, Duration: 60}})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := New(WithTrainedProfile(profile))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(res.Distance-rec.Truth.Distance) / rec.Truth.Distance
	if rel > 0.12 {
		t.Errorf("trained-profile distance off by %.1f%%", 100*rel)
	}
}

func TestCalibrateK(t *testing.T) {
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityWalking, Duration: 60}})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSimProfile()
	k, err := CalibrateK(rec.Trace, Profile{ArmLength: p.ArmLength, LegLength: p.LegLength, K: 2.35}, rec.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 0 || k > 10 {
		t.Errorf("k = %v", k)
	}
	if _, err := CalibrateK(rec.Trace, Profile{ArmLength: p.ArmLength, LegLength: p.LegLength, K: 2.35}, -1); err == nil {
		t.Error("negative distance should fail")
	}
}

func TestOptionsApplied(t *testing.T) {
	// A huge δ turns everything into non-walking; stepping still confirms
	// at the default confirmation count.
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityStepping, Duration: 30}})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := New(WithOffsetThreshold(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := strict.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.LabelCounts()
	if counts[LabelWalking] != 0 {
		t.Errorf("delta=10 still labeled %d cycles walking", counts[LabelWalking])
	}
	if res.Steps == 0 {
		t.Error("stepping at delta=10 counted nothing")
	}
}

func TestTraceCSVRoundTripPublic(t *testing.T) {
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityWalking, Duration: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, rec.Trace); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(rec.Trace.Samples) {
		t.Errorf("samples = %d, want %d", len(got.Samples), len(rec.Trace.Samples))
	}
}

func TestOnlinePublicAPI(t *testing.T) {
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityWalking, Duration: 30}})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSimProfile()
	on, err := NewOnline(rec.Trace.SampleRate, WithProfile(p.ArmLength, p.LegLength, p.K))
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, s := range rec.Trace.Samples {
		events = append(events, on.Push(s)...)
	}
	events = append(events, on.Flush()...)
	truth := rec.Truth.StepCount()
	if math.Abs(float64(on.Steps()-truth)) > 0.12*float64(truth) {
		t.Errorf("online steps = %d, truth %d", on.Steps(), truth)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range events {
		if ev.Label == LabelWalking && ev.StepsAdded != 2 {
			t.Errorf("walking event credited %d steps", ev.StepsAdded)
		}
	}
}

func TestOnlineValidation(t *testing.T) {
	if _, err := NewOnline(0); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewOnline(100, WithProfile(-1, 1, 1)); err == nil {
		t.Error("bad profile should fail")
	}
}

func TestAdaptiveThresholdOption(t *testing.T) {
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(), []SimSegment{
		{Activity: ActivityWalking, Duration: 40},
		{Activity: ActivityEating, Duration: 30},
		{Activity: ActivityWalking, Duration: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := New(WithAdaptiveThreshold())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.1*float64(truth) {
		t.Errorf("adaptive steps = %d, truth %d", res.Steps, truth)
	}
}

func TestPublicFitnessAndTruthIO(t *testing.T) {
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityWalking, Duration: 90}})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultSimProfile()
	tk, err := New(WithProfile(p.ArmLength, p.LegLength, p.K))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}

	sum, err := Summarize(res, UserBody{MassKg: 70}, rec.Trace.Duration().Seconds(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Steps != res.Steps || sum.Kcal <= 0 {
		t.Errorf("summary: %+v", sum)
	}
	if _, err := Summarize(res, UserBody{}, 90, 30); err == nil {
		t.Error("invalid body accepted")
	}

	g, err := AnalyzeGait(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.CadenceMean < 1.5 || g.CadenceMean > 2.1 {
		t.Errorf("cadence = %v", g.CadenceMean)
	}
	if _, err := AnalyzeGait(&Result{}, 0); err == nil {
		t.Error("empty result accepted")
	}

	var buf bytes.Buffer
	if err := WriteGroundTruthJSON(&buf, rec.Truth); err != nil {
		t.Fatal(err)
	}
	truth, err := ReadGroundTruthJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if truth.StepCount() != rec.Truth.StepCount() {
		t.Errorf("truth round trip: %d vs %d", truth.StepCount(), rec.Truth.StepCount())
	}
}
