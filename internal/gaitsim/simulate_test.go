package gaitsim

import (
	"math"
	"testing"

	"ptrack/internal/dsp"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
)

func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.Sensor.NoiseStd = 0
	cfg.Sensor.Bias = imu.DefaultSensorConfig().Bias.Scale(0)
	cfg.MountWobbleAmp = 0
	cfg.YawNoiseStd = 0
	return cfg
}

func TestSimulateWalkBasics(t *testing.T) {
	rec, err := SimulateActivity(DefaultProfile(), DefaultConfig(), trace.ActivityWalking, 30)
	if err != nil {
		t.Fatal(err)
	}
	tr, truth := rec.Trace, rec.Truth
	if got := len(tr.Samples); got != 3000 {
		t.Fatalf("samples = %d, want 3000", got)
	}
	// 1.8 steps/s for 30 s = 54 steps.
	if got := truth.StepCount(); got != 54 {
		t.Errorf("true steps = %d, want 54", got)
	}
	// Distance ~ 0.7 m * 54 = ~37.8 m (with jitter).
	if truth.Distance < 33 || truth.Distance > 43 {
		t.Errorf("distance = %v, want ~37.8", truth.Distance)
	}
	if truth.ArmLength != DefaultProfile().ArmLength {
		t.Errorf("truth arm = %v", truth.ArmLength)
	}
	if tr.Label != trace.ActivityWalking {
		t.Errorf("label = %v", tr.Label)
	}
	if len(truth.Path) != len(tr.Samples) {
		t.Errorf("path length %d != samples %d", len(truth.Path), len(tr.Samples))
	}
}

func TestSimulateValidation(t *testing.T) {
	p := DefaultProfile()
	cfg := DefaultConfig()
	if _, err := Simulate(p, cfg, nil); err == nil {
		t.Error("empty script should fail")
	}
	if _, err := Simulate(p, cfg, []Segment{{Activity: trace.ActivityWalking, Duration: 0}}); err == nil {
		t.Error("zero duration should fail")
	}
	bad := p
	bad.ArmLength = -1
	if _, err := Simulate(bad, cfg, []Segment{{Activity: trace.ActivityWalking, Duration: 1}}); err == nil {
		t.Error("invalid profile should fail")
	}
	cfg.SampleRate = 0
	if _, err := Simulate(p, cfg, []Segment{{Activity: trace.ActivityWalking, Duration: 1}}); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := SimulateActivity(p, DefaultConfig(), trace.ActivityUnknown, 1); err == nil {
		t.Error("unknown activity should fail")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	p, cfg := DefaultProfile(), DefaultConfig()
	a, err := SimulateActivity(p, cfg, trace.ActivityWalking, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateActivity(p, cfg, trace.ActivityWalking, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trace.Samples {
		if a.Trace.Samples[i] != b.Trace.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	cfg.Seed = 2
	c, err := SimulateActivity(p, cfg, trace.ActivityWalking, 5)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Trace.Samples {
		if a.Trace.Samples[i] != c.Trace.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestSimulateRestingMagnitudeIsGravity(t *testing.T) {
	rec, err := SimulateActivity(DefaultProfile(), quietConfig(), trace.ActivityIdle, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range rec.Trace.Samples {
		if d := math.Abs(s.Accel.Norm() - imu.StandardGravity); d > 0.2 {
			t.Fatalf("sample %d: |accel| = %v, want ~G", i, s.Accel.Norm())
		}
	}
	if rec.Truth.StepCount() != 0 {
		t.Error("idle should have no steps")
	}
	if rec.Truth.Distance != 0 {
		t.Error("idle should cover no distance")
	}
}

func TestSimulateWalkingHasGaitBandEnergy(t *testing.T) {
	rec, err := SimulateActivity(DefaultProfile(), DefaultConfig(), trace.ActivityWalking, 20)
	if err != nil {
		t.Fatal(err)
	}
	_, _, z := rec.Trace.AccelSeries()
	// The dominant periodicity of the (device-frame) vertical-ish channel
	// should sit in the gait band.
	f := dsp.DominantFrequency(z, rec.Trace.SampleRate, 0.5, 4)
	if f < 0.7 || f > 3 {
		t.Errorf("dominant frequency = %v Hz, want in gait band", f)
	}
}

func TestSimulateStepTimesHalfPeriodApart(t *testing.T) {
	p := DefaultProfile()
	rec, err := SimulateActivity(p, DefaultConfig(), trace.ActivityWalking, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / p.StepFrequency
	steps := rec.Truth.Steps
	for i := 1; i < len(steps); i++ {
		if d := steps[i].T - steps[i-1].T; math.Abs(d-want) > 1e-9 {
			t.Fatalf("step interval %d = %v, want %v", i, d, want)
		}
	}
}

func TestSimulateStridesConsistentWithDistance(t *testing.T) {
	rec, err := SimulateActivity(DefaultProfile(), DefaultConfig(), trace.ActivityWalking, 25)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range rec.Truth.Steps {
		sum += s.Stride
	}
	if math.Abs(sum-rec.Truth.Distance) > 1e-9 {
		t.Errorf("stride sum %v != distance %v", sum, rec.Truth.Distance)
	}
}

func TestSimulateMixedScriptSpans(t *testing.T) {
	script := []Segment{
		{Activity: trace.ActivityWalking, Duration: 10},
		{Activity: trace.ActivityEating, Duration: 5},
		{Activity: trace.ActivityStepping, Duration: 10},
	}
	rec, err := Simulate(DefaultProfile(), DefaultConfig(), script)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Trace.Label != trace.ActivityUnknown {
		t.Errorf("mixed label = %v", rec.Trace.Label)
	}
	if got := len(rec.Truth.Activities); got != 3 {
		t.Fatalf("spans = %d", got)
	}
	if span := rec.Truth.Activities[1]; span.Start > 12 || span.End <= 12 || span.Activity != trace.ActivityEating {
		t.Errorf("span covering 12s = %+v, want eating", span)
	}
	// Steps only from the two pedestrian segments: 18 + 18.
	if got := rec.Truth.StepCount(); got != 36 {
		t.Errorf("steps = %d, want 36", got)
	}
	// No step events inside the eating span.
	for _, s := range rec.Truth.Steps {
		if s.T >= 10 && s.T < 15 {
			t.Errorf("step at %v inside eating span", s.T)
		}
	}
}

func TestSimulateTurningChangesHeadingAndPath(t *testing.T) {
	// Walk straight, then turn left 90 degrees over 5 s, then straight.
	script := []Segment{
		{Activity: trace.ActivityWalking, Duration: 10},
		{Activity: trace.ActivityWalking, Duration: 5, TurnRate: math.Pi / 2 / 5},
		{Activity: trace.ActivityWalking, Duration: 10},
	}
	rec, err := Simulate(DefaultProfile(), quietConfig(), script)
	if err != nil {
		t.Fatal(err)
	}
	samples := rec.Trace.Samples
	if math.Abs(samples[0].Yaw) > 1e-9 {
		t.Errorf("initial yaw = %v", samples[0].Yaw)
	}
	finalYaw := samples[len(samples)-1].Yaw
	if math.Abs(finalYaw-math.Pi/2) > 0.05 {
		t.Errorf("final yaw = %v, want ~pi/2", finalYaw)
	}
	// Path: first leg along +X, last leg along +Y.
	path := rec.Truth.Path
	p0, p1 := path[0], path[999]
	if d := p1.Sub(p0); math.Abs(d.Y) > 0.5 || d.X < 5 {
		t.Errorf("first leg direction wrong: %v", d)
	}
	pEnd := path[len(path)-1]
	pMid := path[1500]
	if d := pEnd.Sub(pMid); d.Y < 5 {
		t.Errorf("last leg not along +Y: %v", d)
	}
}

func TestSimulateInterferenceNoSteps(t *testing.T) {
	for _, a := range []trace.Activity{
		trace.ActivityEating, trace.ActivityPoker, trace.ActivityPhoto,
		trace.ActivityGaming, trace.ActivitySwinging, trace.ActivitySpoofing,
	} {
		rec, err := SimulateActivity(DefaultProfile(), DefaultConfig(), a, 10)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if rec.Truth.StepCount() != 0 {
			t.Errorf("%v: %d true steps, want 0", a, rec.Truth.StepCount())
		}
		if rec.Truth.Distance != 0 {
			t.Errorf("%v: distance %v, want 0", a, rec.Truth.Distance)
		}
		// Interference must still shake the sensor (else baselines would
		// never be fooled): non-trivial acceleration variance.
		_, _, z := rec.Trace.AccelSeries()
		if v := dsp.Variance(z); v < 0.01 {
			t.Errorf("%v: vertical variance %v suspiciously low", a, v)
		}
	}
}

func TestSimulateAppendedActivitiesTimestamps(t *testing.T) {
	rec, err := Simulate(DefaultProfile(), DefaultConfig(), []Segment{
		{Activity: trace.ActivityWalking, Duration: 3},
		{Activity: trace.ActivityIdle, Duration: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Trace.Samples
	for i := 1; i < len(s); i++ {
		if s[i].T <= s[i-1].T {
			t.Fatalf("non-monotone timestamps at %d", i)
		}
	}
	if got := s[len(s)-1].T; math.Abs(got-4.99) > 1e-6 {
		t.Errorf("final T = %v, want 4.99", got)
	}
}

func TestSimulateRunning(t *testing.T) {
	p := DefaultProfile()
	rec, err := SimulateActivity(p, DefaultConfig(), trace.ActivityRunning, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Running cadence = 1.8 * 1.7 = 3.06 steps/s -> ~91 steps in 30 s.
	got := rec.Truth.StepCount()
	if got < 85 || got > 95 {
		t.Errorf("running steps = %d, want ~91", got)
	}
	// Faster and longer than walking: distance well above a walk's.
	if rec.Truth.Distance < 90 {
		t.Errorf("running distance = %.1f m, want > 90", rec.Truth.Distance)
	}
	if !trace.ActivityRunning.Pedestrian() {
		t.Error("running must be a pedestrian activity")
	}
}

func TestRunningProfileValidation(t *testing.T) {
	// A profile whose running variant would exceed the Eq. 2 domain must
	// be rejected rather than silently clamped into nonsense.
	p := DefaultProfile()
	p.StrideLength = 1.2 // running stride 1.98; s/K = 0.84 < leg 0.9: valid
	if _, err := SimulateActivity(p, DefaultConfig(), trace.ActivityRunning, 5); err != nil {
		t.Errorf("valid running profile rejected: %v", err)
	}
	p.StrideLength = 1.35 // running stride 2.23; s/K = 0.95 > 0.9: invalid
	if _, err := SimulateActivity(p, DefaultConfig(), trace.ActivityRunning, 5); err == nil {
		t.Error("out-of-domain running profile accepted")
	}
}
