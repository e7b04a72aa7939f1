package baseline

import (
	"math"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

func simulate(t *testing.T, a trace.Activity, duration float64, seed int64) *trace.Recording {
	t.Helper()
	cfg := gaitsim.DefaultConfig()
	cfg.Seed = seed
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), cfg, a, duration)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCountStepsAccurateOnWalking(t *testing.T) {
	rec := simulate(t, trace.ActivityWalking, 60, 1)
	truth := rec.Truth.StepCount()
	for _, tt := range []struct {
		name string
		cfg  PeakCounterConfig
	}{
		{"gfit", GFitConfig()},
		{"montage", MontageConfig()},
		{"mobile", MobileAppConfig()},
	} {
		t.Run(tt.name, func(t *testing.T) {
			got := CountSteps(rec.Trace, tt.cfg)
			if math.Abs(float64(got-truth)) > 0.1*float64(truth) {
				t.Errorf("steps = %d, truth %d", got, truth)
			}
		})
	}
}

func TestCountStepsMisTriggeredByInterference(t *testing.T) {
	// The paper's Fig. 1(a)/7(a): tens of false steps per minute.
	for _, a := range []trace.Activity{trace.ActivityEating, trace.ActivityPoker} {
		rec := simulate(t, a, 60, 2)
		got := CountSteps(rec.Trace, GFitConfig())
		if got < 15 {
			t.Errorf("%v: gfit counted only %d false steps; expected heavy mis-triggering", a, got)
		}
	}
}

func TestCountStepsSpoofed(t *testing.T) {
	// Fig. 1(c)/7(b): the spoofer racks up steps on all baselines.
	rec := simulate(t, trace.ActivitySpoofing, 60, 3)
	gfit := CountSteps(rec.Trace, GFitConfig())
	mtage := CountSteps(rec.Trace, MontageConfig())
	if gfit < 50 {
		t.Errorf("gfit spoofed count = %d, want >= 50", gfit)
	}
	if mtage < 50 {
		t.Errorf("montage spoofed count = %d, want >= 50", mtage)
	}
}

func TestCountStepsEmpty(t *testing.T) {
	if got := CountSteps(nil, GFitConfig()); got != 0 {
		t.Errorf("nil trace = %d", got)
	}
	if got := CountSteps(&trace.Trace{SampleRate: 100}, GFitConfig()); got != 0 {
		t.Errorf("empty trace = %d", got)
	}
}

func TestMontageContinuityRejectsIsolatedJolts(t *testing.T) {
	// Isolated non-rhythmic peaks: continuity-gated counter stays low
	// while the plain counter counts them all.
	rec := simulate(t, trace.ActivityPhoto, 60, 4)
	gfit := CountSteps(rec.Trace, GFitConfig())
	mtage := CountSteps(rec.Trace, MontageConfig())
	if mtage > gfit {
		t.Errorf("continuity gating increased the count: %d > %d", mtage, gfit)
	}
}

func trainSCAR(t *testing.T, withPhoto bool) *SCAR {
	t.Helper()
	classes := []trace.Activity{
		trace.ActivityWalking, trace.ActivityStepping,
		trace.ActivityEating, trace.ActivityPoker, trace.ActivityGaming,
	}
	if withPhoto {
		classes = append(classes, trace.ActivityPhoto)
	}
	training := make(map[trace.Activity][]*trace.Trace, len(classes))
	for i, a := range classes {
		for s := 0; s < 2; s++ {
			rec := simulate(t, a, 45, int64(100+10*i+s))
			training[a] = append(training[a], rec.Trace)
		}
	}
	s, err := NewSCAR(training)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSCARValidation(t *testing.T) {
	if _, err := NewSCAR(nil); err == nil {
		t.Error("no training data should fail")
	}
	empty := map[trace.Activity][]*trace.Trace{
		trace.ActivityWalking: {{SampleRate: 100}},
	}
	if _, err := NewSCAR(empty); err == nil {
		t.Error("empty traces should fail")
	}
}

func TestSCARClassifiesTrainedActivities(t *testing.T) {
	s := trainSCAR(t, false)
	tests := []struct {
		a trace.Activity
	}{
		{trace.ActivityWalking},
		{trace.ActivityStepping},
		{trace.ActivityEating},
		{trace.ActivityPoker},
	}
	for _, tt := range tests {
		t.Run(tt.a.String(), func(t *testing.T) {
			rec := simulate(t, tt.a, 40, 7)
			if got := s.Classify(rec.Trace); got != tt.a {
				t.Errorf("classified %v as %v", tt.a, got)
			}
		})
	}
}

func TestSCARCountsWalkingAndRejectsTrainedInterference(t *testing.T) {
	s := trainSCAR(t, false)
	walk := simulate(t, trace.ActivityWalking, 60, 8)
	truth := walk.Truth.StepCount()
	got := s.CountSteps(walk.Trace)
	if math.Abs(float64(got-truth)) > 0.15*float64(truth) {
		t.Errorf("walking steps = %d, truth %d", got, truth)
	}
	eat := simulate(t, trace.ActivityEating, 60, 9)
	if got := s.CountSteps(eat.Trace); got > 8 {
		t.Errorf("trained eating still produced %d steps", got)
	}
}

func TestSCARFailsOnUntrainedActivity(t *testing.T) {
	// Fig. 7(a): withhold Photo from training; SCAR degrades on it while
	// the fully trained variant handles it.
	without := trainSCAR(t, false)
	with := trainSCAR(t, true)
	rec := simulate(t, trace.ActivityPhoto, 60, 10)
	missWithout := without.CountSteps(rec.Trace)
	missWith := with.CountSteps(rec.Trace)
	t.Logf("photo miscounts: untrained=%d trained=%d", missWithout, missWith)
	if missWithout <= missWith {
		t.Errorf("untrained SCAR (%d) should miscount more than trained (%d)", missWithout, missWith)
	}
	if missWithout < 5 {
		t.Errorf("untrained SCAR barely mis-triggered (%d); the withheld class should hurt", missWithout)
	}
}

func TestSCARClassesSorted(t *testing.T) {
	s := trainSCAR(t, false)
	cls := s.Classes()
	for i := 1; i < len(cls); i++ {
		if cls[i] <= cls[i-1] {
			t.Fatalf("classes not sorted: %v", cls)
		}
	}
}

func TestStrideModelString(t *testing.T) {
	if StrideBiomechanical.String() != "biomechanical" ||
		StrideEmpirical.String() != "empirical" ||
		StrideIntegral.String() != "integral" ||
		StrideModel(0).String() != "unknown-model" {
		t.Error("model names wrong")
	}
}

func TestBaselineStridesInaccurateOnWrist(t *testing.T) {
	// Fig. 1(d): naive models on the wrist are far off the true stride.
	// Use a long-stride profile: the integral model measures the arm's
	// swing displacement, which does not track the stride at all.
	p := gaitsim.DefaultProfile()
	p.StrideLength = 0.95
	cfg := gaitsim.DefaultConfig()
	cfg.Seed = 11
	rec, err := gaitsim.SimulateActivity(p, cfg, trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}
	var meanTruth float64
	for _, s := range rec.Truth.Steps {
		meanTruth += s.Stride
	}
	meanTruth /= float64(len(rec.Truth.Steps))

	for _, model := range []StrideModel{StrideBiomechanical, StrideIntegral} {
		strides := EstimateStrides(rec.Trace, model, StrideConfig{})
		if len(strides) == 0 {
			t.Fatalf("%v: no strides", model)
		}
		var meanErr float64
		for _, s := range strides {
			meanErr += math.Abs(s - meanTruth)
		}
		meanErr /= float64(len(strides))
		t.Logf("%v: mean |error| = %.2f m (truth %.2f)", model, meanErr, meanTruth)
		if meanErr < 0.15 {
			t.Errorf("%v unexpectedly accurate on the wrist: %.3f m", model, meanErr)
		}
	}
}

func TestEstimateStridesEmpty(t *testing.T) {
	if got := EstimateStrides(nil, StrideEmpirical, StrideConfig{}); got != nil {
		t.Error("nil trace should yield nothing")
	}
}

func TestMontageStrideMatchesBiomechanical(t *testing.T) {
	rec := simulate(t, trace.ActivityWalking, 30, 12)
	a := MontageStride(rec.Trace, StrideConfig{})
	b := EstimateStrides(rec.Trace, StrideBiomechanical, StrideConfig{})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MontageStride diverges from the biomechanical model")
		}
	}
}

func TestMontageStrideAccurateWhenAssumptionHolds(t *testing.T) {
	// Montage assumes the device rides the body. Our "stepping" activity
	// is exactly that case (arm pinned to the torso) — the biomechanical
	// model must then be accurate, showing the Fig. 8(a) failure is the
	// wrist placement, not a strawman implementation.
	p := gaitsim.DefaultProfile()
	cfg := gaitsim.DefaultConfig()
	cfg.Seed = 31
	rec, err := gaitsim.SimulateActivity(p, cfg, trace.ActivityStepping, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate Montage's K on this user (the paper's baselines get
	// per-user training too): one pass to find the scale.
	raw := MontageStride(rec.Trace, StrideConfig{LegLength: p.LegLength, K: 1})
	if len(raw) == 0 {
		t.Fatal("no strides")
	}
	var meanRaw, meanTruth float64
	for _, s := range raw {
		meanRaw += s
	}
	meanRaw /= float64(len(raw))
	for _, s := range rec.Truth.Steps {
		meanTruth += s.Stride
	}
	meanTruth /= float64(len(rec.Truth.Steps))
	k := meanTruth / meanRaw

	cfg2 := gaitsim.DefaultConfig()
	cfg2.Seed = 32
	rec2, err := gaitsim.SimulateActivity(p, cfg2, trace.ActivityStepping, 60)
	if err != nil {
		t.Fatal(err)
	}
	est := MontageStride(rec2.Trace, StrideConfig{LegLength: p.LegLength, K: k})
	var errSum float64
	n := len(est)
	if len(rec2.Truth.Steps) < n {
		n = len(rec2.Truth.Steps)
	}
	for i := 0; i < n; i++ {
		errSum += math.Abs(est[i] - rec2.Truth.Steps[i].Stride)
	}
	meanErr := errSum / float64(n)
	t.Logf("body-mounted Montage mean stride error: %.3f m", meanErr)
	if meanErr > 0.08 {
		t.Errorf("Montage inaccurate even when its assumption holds: %.3f m", meanErr)
	}
}
