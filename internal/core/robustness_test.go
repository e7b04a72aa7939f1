package core

// Failure-injection tests: the pipeline must degrade gracefully — never
// panic, never hallucinate large step counts — under sensor dropouts,
// saturation, elevated noise, unusual sample rates and flipped mounting.

import (
	"math"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

func walkRecording(t *testing.T, mutate func(cfg *gaitsim.Config)) *trace.Recording {
	t.Helper()
	cfg := gaitsim.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), cfg, trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRobustnessSensorDropout(t *testing.T) {
	// Zeroed 0.5 s gaps every 5 s (a flaky sensor bus). Steps inside the
	// gaps are lost, but counting must continue around them and never
	// explode.
	rec := walkRecording(t, nil)
	rate := rec.Trace.SampleRate
	for i := range rec.Trace.Samples {
		sec := float64(i) / rate
		if math.Mod(sec, 5) < 0.5 {
			rec.Trace.Samples[i].Accel = vecmath.V3(0, 0, imu.StandardGravity)
		}
	}
	res, err := Process(rec.Trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	// 10% of time is blanked; accept 60-105% of truth.
	if res.Steps < int(0.6*float64(truth)) || res.Steps > truth+4 {
		t.Errorf("dropout steps = %d, truth %d", res.Steps, truth)
	}
}

func TestRobustnessSaturation(t *testing.T) {
	// Clip the accelerometer at ±2g per axis (a cheap sensor range).
	rec := walkRecording(t, nil)
	clip := 2 * imu.StandardGravity
	clamp := func(v float64) float64 {
		if v > clip {
			return clip
		}
		if v < -clip {
			return -clip
		}
		return v
	}
	for i := range rec.Trace.Samples {
		a := rec.Trace.Samples[i].Accel
		rec.Trace.Samples[i].Accel = vecmath.V3(clamp(a.X), clamp(a.Y), clamp(a.Z))
	}
	res, err := Process(rec.Trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.15*float64(truth) {
		t.Errorf("saturated steps = %d, truth %d", res.Steps, truth)
	}
}

func TestRobustnessElevatedNoise(t *testing.T) {
	// 10x the default sensor noise (0.3 m/s^2 std).
	rec := walkRecording(t, func(cfg *gaitsim.Config) {
		cfg.Sensor.NoiseStd = 0.3
	})
	res, err := Process(rec.Trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.2*float64(truth) {
		t.Errorf("noisy steps = %d, truth %d", res.Steps, truth)
	}
}

func TestRobustnessSampleRates(t *testing.T) {
	for _, rate := range []float64{50, 200} {
		rec := walkRecording(t, func(cfg *gaitsim.Config) {
			cfg.SampleRate = rate
		})
		res, err := Process(rec.Trace, Config{})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		truth := rec.Truth.StepCount()
		if math.Abs(float64(res.Steps-truth)) > 0.12*float64(truth) {
			t.Errorf("rate %v: steps = %d, truth %d", rate, res.Steps, truth)
		}
	}
}

func TestRobustnessLargeBias(t *testing.T) {
	// A badly calibrated accelerometer: 0.3 m/s^2 bias on every axis.
	rec := walkRecording(t, func(cfg *gaitsim.Config) {
		cfg.Sensor.Bias = vecmath.V3(0.3, -0.3, 0.3)
	})
	p := gaitsim.DefaultProfile()
	res, err := Process(rec.Trace, profileConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.12*float64(truth) {
		t.Errorf("biased steps = %d, truth %d", res.Steps, truth)
	}
	// The mean-removal integration must keep distance sane despite bias.
	rel := math.Abs(res.Distance-rec.Truth.Distance) / rec.Truth.Distance
	if rel > 0.4 {
		t.Errorf("biased distance off by %.0f%%", rel*100)
	}
}

func TestRobustnessFlippedMount(t *testing.T) {
	// Watch worn on the other wrist / rotated 180 degrees about vertical:
	// projection is orientation-free, so counting must be unaffected.
	rec := walkRecording(t, nil)
	for i := range rec.Trace.Samples {
		a := rec.Trace.Samples[i].Accel
		rec.Trace.Samples[i].Accel = vecmath.V3(-a.X, -a.Y, a.Z)
	}
	res, err := Process(rec.Trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.1*float64(truth) {
		t.Errorf("flipped steps = %d, truth %d", res.Steps, truth)
	}
}

func TestRobustnessConstantSamples(t *testing.T) {
	// A wedged sensor repeating one value must not produce steps or panic.
	tr := &trace.Trace{SampleRate: 100}
	for i := 0; i < 3000; i++ {
		tr.Samples = append(tr.Samples, trace.Sample{
			T:     float64(i) / 100,
			Accel: vecmath.V3(1, 2, 9),
		})
	}
	res, err := Process(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 {
		t.Errorf("wedged sensor produced %d steps", res.Steps)
	}
}

func TestRobustnessExtremeValues(t *testing.T) {
	// NaN-free processing of huge spikes.
	rec := walkRecording(t, nil)
	rec.Trace.Samples[1000].Accel = vecmath.V3(500, -500, 500)
	rec.Trace.Samples[2000].Accel = vecmath.V3(-500, 500, -500)
	res, err := Process(rec.Trace, profileConfig(gaitsim.DefaultProfile()))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Distance) || math.IsInf(res.Distance, 0) {
		t.Error("distance is not finite")
	}
	for _, s := range res.StepLog {
		if math.IsNaN(s.Stride) || math.IsInf(s.Stride, 0) {
			t.Fatal("non-finite stride")
		}
	}
}

func TestRobustnessResampledTrace(t *testing.T) {
	// A 100 Hz trace resampled to 64 Hz must still count correctly: the
	// pipeline derives everything from the declared sample rate.
	rec := walkRecording(t, nil)
	res, err := Process(resample(rec.Trace, 64), Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.Truth.StepCount()
	if math.Abs(float64(res.Steps-truth)) > 0.12*float64(truth) {
		t.Errorf("resampled steps = %d, truth %d", res.Steps, truth)
	}
}

// resample converts tr to rate by linear interpolation of every channel
// onto a uniform grid from its first sample. Yaw is interpolated
// directly, which holds while it does not wrap within one sample
// interval.
func resample(tr *trace.Trace, rate float64) *trace.Trace {
	out := &trace.Trace{SampleRate: rate, Label: tr.Label}
	t0, end := tr.Samples[0].T, tr.Samples[len(tr.Samples)-1].T
	j := 0
	for i := 0; ; i++ {
		ti := t0 + float64(i)/rate
		if ti > end {
			return out
		}
		for j+2 < len(tr.Samples) && tr.Samples[j+1].T <= ti {
			j++
		}
		a, b := tr.Samples[j], tr.Samples[j+1]
		f := (ti - a.T) / (b.T - a.T)
		out.Samples = append(out.Samples, trace.Sample{
			T:     ti,
			Accel: a.Accel.Lerp(b.Accel, f),
			Gyro:  a.Gyro.Lerp(b.Gyro, f),
			Yaw:   a.Yaw + f*(b.Yaw-a.Yaw),
		})
	}
}
