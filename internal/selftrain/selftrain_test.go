package selftrain

import (
	"math"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// calibrationRecording simulates the natural mixed-gait data self-training
// feeds on: walking with occasional stepping.
func calibrationRecording(t *testing.T, seed int64) *trace.Recording {
	t.Helper()
	cfg := gaitsim.DefaultConfig()
	cfg.Seed = seed
	rec, err := gaitsim.Simulate(gaitsim.DefaultProfile(), cfg, []gaitsim.Segment{
		{Activity: trace.ActivityWalking, Duration: 60},
		{Activity: trace.ActivityStepping, Duration: 30},
		{Activity: trace.ActivityWalking, Duration: 60},
		{Activity: trace.ActivityStepping, Duration: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestTrainValidation(t *testing.T) {
	if _, _, err := Train(nil, 0); err == nil {
		t.Error("nil trace should fail")
	}
	if _, _, err := Train(&trace.Trace{SampleRate: 100}, 0); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestTrainNoWalking(t *testing.T) {
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(), trace.ActivityIdle, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Train(rec.Trace, 0); err == nil {
		t.Error("idle trace should fail (no walking steps)")
	}
}

func TestTrainProducesValidProfile(t *testing.T) {
	rec := calibrationRecording(t, 21)
	cfg, diag, err := Train(rec.Trace, rec.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("trained profile invalid: %v (cfg %+v)", err, cfg)
	}
	if !diag.ArmConverged {
		t.Error("arm search had no stepping anchor")
	}
	if !diag.KFromDistance {
		t.Error("k was not distance-calibrated")
	}
	if diag.WalkSteps < 100 || diag.StepSteps < 30 {
		t.Errorf("diagnostics thin: %+v", diag)
	}
	t.Logf("trained: arm=%.3f leg=%.3f k=%.3f (true arm %.2f leg %.2f) diag=%+v",
		cfg.ArmLength, cfg.LegLength, cfg.K,
		rec.Truth.ArmLength, rec.Truth.LegLength, diag)
	// The arm search matches walking bounce to the stepping anchor. The
	// arm-leg phase lag biases the walking bounce low, so m̂ is an
	// *effective* parameter rather than the tape-measure value (the
	// trained k absorbs the scale; what the paper compares in Fig. 8(b)
	// is the resulting stride accuracy, tested in the eval package).
	if cfg.ArmLength < 0.40 || cfg.ArmLength > 0.95 {
		t.Errorf("arm = %v outside search bounds", cfg.ArmLength)
	}
	if cfg.LegLength < 0.55 || cfg.LegLength > 1.4 {
		t.Errorf("leg = %v implausible", cfg.LegLength)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rec := calibrationRecording(t, 22)
	a, _, err := Train(rec.Trace, rec.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Train(rec.Trace, rec.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("training not deterministic: %+v vs %+v", a, b)
	}
}

func TestTrainWithoutSteppingFallsBack(t *testing.T) {
	cfg := gaitsim.DefaultConfig()
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), cfg, trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}
	trained, diag, err := Train(rec.Trace, rec.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}
	if diag.ArmConverged {
		t.Error("arm search claims convergence without a stepping anchor")
	}
	if err := trained.Validate(); err != nil {
		t.Errorf("fallback profile invalid: %v", err)
	}
}

func TestTrainedProfileDistanceAccuracy(t *testing.T) {
	// Train on one recording, evaluate distance on a fresh one.
	recTrain := calibrationRecording(t, 23)
	cfg, _, err := Train(recTrain.Trace, recTrain.Truth.Distance)
	if err != nil {
		t.Fatal(err)
	}

	simCfg := gaitsim.DefaultConfig()
	simCfg.Seed = 99
	recEval, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), simCfg, trace.ActivityWalking, 90)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := CalibrateK(recEval.Trace, cfg, recEval.Truth.Distance)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	// If the trained profile were badly wrong, the k needed on fresh data
	// would diverge from the trained k. Within 15% means the profile
	// transfers.
	if rel := math.Abs(got-cfg.K) / cfg.K; rel > 0.15 {
		t.Errorf("k drift on fresh data: trained %.3f, refit %.3f (%.1f%%)", cfg.K, got, 100*rel)
	}
}

func TestCalibrateKValidation(t *testing.T) {
	rec := calibrationRecording(t, 24)
	cfg, _, err := Train(rec.Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateK(rec.Trace, cfg, -5); err == nil {
		t.Error("negative distance should fail")
	}
	idle, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(), trace.ActivityIdle, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateK(idle.Trace, cfg, 100); err == nil {
		t.Error("idle trace should fail calibration")
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tt := range tests {
		if got := median(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
	// Input not mutated.
	in := []float64{9, 1, 5}
	median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("median mutated input")
	}
}
