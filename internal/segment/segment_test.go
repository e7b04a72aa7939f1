package segment

import (
	"math"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.LowPassCutoffHz != 5 || MinPeakProminence != 0.8 ||
		MinPeakDistanceS != 0.25 || MinCycleS != 0.6 ||
		MaxCycleS != 2.8 || MaxPeriodRatio != 1.8 {
		t.Errorf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{LowPassCutoffHz: 2}.WithDefaults()
	if c2.LowPassCutoffHz != 2 {
		t.Error("explicit cutoff overridden")
	}
}

func TestSegmentEmptyAndNil(t *testing.T) {
	if res := Segment(nil, Config{}); len(res.Cycles) != 0 || len(res.Peaks) != 0 {
		t.Error("nil trace should produce nothing")
	}
	if res := Segment(&trace.Trace{SampleRate: 100}, Config{}); len(res.Cycles) != 0 {
		t.Error("empty trace should produce nothing")
	}
	if res := Segment(&trace.Trace{Samples: make([]trace.Sample, 10)}, Config{}); len(res.Cycles) != 0 {
		t.Error("zero-rate trace should produce nothing")
	}
}

// syntheticStepTrace builds a trace whose magnitude pulses at the given
// step frequency.
func syntheticStepTrace(rate, stepHz, amp float64, seconds float64) *trace.Trace {
	n := int(rate * seconds)
	tr := &trace.Trace{SampleRate: rate}
	for i := 0; i < n; i++ {
		ti := float64(i) / rate
		v := amp * math.Sin(2*math.Pi*stepHz*ti)
		tr.Samples = append(tr.Samples, trace.Sample{
			T:     ti,
			Accel: vecmath.V3(0, 0, imu.StandardGravity+v),
		})
	}
	return tr
}

func TestSegmentCountsPeaksAtStepRate(t *testing.T) {
	tr := syntheticStepTrace(100, 1.8, 3, 20)
	res := Segment(tr, Config{})
	// 1.8 peaks/s for 20 s = 36 peaks (edges may clip one).
	if len(res.Peaks) < 33 || len(res.Peaks) > 37 {
		t.Errorf("peaks = %d, want ~36", len(res.Peaks))
	}
	// Non-overlapping two-peak cycles: ~17.
	if len(res.Cycles) < 15 || len(res.Cycles) > 18 {
		t.Errorf("cycles = %d, want ~17", len(res.Cycles))
	}
	for _, c := range res.Cycles {
		if c.Len() <= 0 {
			t.Fatalf("bad cycle %+v", c)
		}
		if c.Peaks[0] != c.Start || c.Peaks[1] <= c.Start || c.Peaks[1] >= c.End {
			t.Fatalf("peak layout wrong: %+v", c)
		}
	}
}

func TestSegmentCyclesNonOverlapping(t *testing.T) {
	tr := syntheticStepTrace(100, 2, 3, 30)
	res := Segment(tr, Config{})
	for i := 1; i < len(res.Cycles); i++ {
		if res.Cycles[i].Start < res.Cycles[i-1].End {
			t.Fatalf("cycles %d and %d overlap", i-1, i)
		}
	}
}

func TestSegmentRejectsTooSlowCadence(t *testing.T) {
	// 0.4 Hz peaks: a two-peak cycle lasts 5 s, outside MaxCycleS.
	tr := syntheticStepTrace(100, 0.4, 3, 30)
	res := Segment(tr, Config{})
	if len(res.Cycles) != 0 {
		t.Errorf("cycles = %d, want 0 for 0.4 Hz", len(res.Cycles))
	}
}

func TestSegmentRejectsQuietSignal(t *testing.T) {
	tr := syntheticStepTrace(100, 1.8, 0.2, 20) // below prominence
	res := Segment(tr, Config{})
	if len(res.Peaks) != 0 {
		t.Errorf("peaks = %d, want 0 for 0.2 m/s^2 ripple", len(res.Peaks))
	}
}

func TestSegmentSkipsIrregularInterval(t *testing.T) {
	// Regular pulses with one missing: the candidate spanning the gap has
	// ratio 2 and is skipped, but later cycles recover.
	rate := 100.0
	tr := &trace.Trace{SampleRate: rate}
	peakTimes := []float64{0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.0, 4.5}
	n := int(rate * 5.5)
	for i := 0; i < n; i++ {
		ti := float64(i) / rate
		v := 0.0
		for _, pt := range peakTimes {
			d := (ti - pt) / 0.05
			v += 4 * math.Exp(-d*d)
		}
		tr.Samples = append(tr.Samples, trace.Sample{T: ti, Accel: vecmath.V3(0, 0, imu.StandardGravity+v)})
	}
	res := Segment(tr, Config{})
	if len(res.Peaks) != len(peakTimes) {
		t.Fatalf("peaks = %d, want %d", len(res.Peaks), len(peakTimes))
	}
	if len(res.Cycles) < 2 {
		t.Errorf("cycles = %d, want recovery after the gap", len(res.Cycles))
	}
	for _, c := range res.Cycles {
		d1 := c.Peaks[1] - c.Peaks[0]
		d2 := c.End - c.Peaks[1]
		ratio := float64(max(d1, d2)) / float64(min(d1, d2))
		if ratio > 1.8 {
			t.Errorf("cycle with ratio %v accepted: %+v", ratio, c)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSegmentOnSimulatedWalk(t *testing.T) {
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(), trace.ActivityWalking, 30)
	if err != nil {
		t.Fatal(err)
	}
	res := Segment(rec.Trace, Config{})
	// 54 true steps -> ~27 candidate cycles.
	if len(res.Cycles) < 22 || len(res.Cycles) > 29 {
		t.Errorf("cycles = %d, want ~26", len(res.Cycles))
	}
	if len(res.Magnitude) != len(rec.Trace.Samples) {
		t.Error("magnitude length mismatch")
	}
}

func TestSegmentOnIdleProducesNothing(t *testing.T) {
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(), trace.ActivityIdle, 20)
	if err != nil {
		t.Fatal(err)
	}
	res := Segment(rec.Trace, Config{})
	if len(res.Cycles) != 0 {
		t.Errorf("idle produced %d cycles", len(res.Cycles))
	}
}

func TestWithDefaultsFillsEveryField(t *testing.T) {
	d := Config{}.WithDefaults()
	if want := (Config{LowPassCutoffHz: 5}); d != want {
		t.Errorf("WithDefaults() = %+v, want %+v", d, want)
	}
	// The fixed cycle rule keeps the values the defaults used to carry.
	got := [...]float64{MinPeakProminence, MinPeakDistanceS, MinCycleS, MaxCycleS, MaxPeriodRatio, MaxAmplitudeRatio}
	want := [...]float64{0.8, 0.25, 0.6, 2.8, 1.8, 1.8}
	if got != want {
		t.Errorf("constants = %v, want %v", got, want)
	}
	// Non-zero fields survive.
	c := Config{LowPassCutoffHz: 3}.WithDefaults()
	if c.LowPassCutoffHz != 3 {
		t.Errorf("WithDefaults clobbered explicit fields: %+v", c)
	}
}
