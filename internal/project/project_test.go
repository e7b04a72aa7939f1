package project

import (
	"math"
	"testing"

	"ptrack/internal/dsp"
	"ptrack/internal/gaitsim"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

func TestDecomposeEmpty(t *testing.T) {
	if s := Decompose(nil); len(s.Vertical) != 0 {
		t.Error("nil trace should decompose to nothing")
	}
	if s := Decompose(&trace.Trace{SampleRate: 100}); len(s.Vertical) != 0 {
		t.Error("empty trace should decompose to nothing")
	}
}

// tiltedTrace builds a trace for a device under a static tilt whose world
// vertical linear acceleration is a known sine and anterior a known
// cosine along world X.
func tiltedTrace(rate float64, n int, tilt float64) (*trace.Trace, []float64, []float64) {
	att := vecmath.AxisAngle(vecmath.V3(1, 0, 0), tilt)
	s := imu.NewSensor(imu.SensorConfig{SampleRate: rate, Seed: 1})
	tr := &trace.Trace{SampleRate: rate}
	vert := make([]float64, n)
	ant := make([]float64, n)
	for i := 0; i < n; i++ {
		ti := float64(i) / rate
		vert[i] = 2 * math.Sin(2*math.Pi*2*ti)
		ant[i] = 3 * math.Cos(2*math.Pi*1*ti)
		world := vecmath.V3(ant[i], 0, vert[i])
		tr.Samples = append(tr.Samples, trace.Sample{T: ti, Accel: s.Read(world, att)})
	}
	return tr, vert, ant
}

func TestDecomposeRecoversVertical(t *testing.T) {
	tr, vert, _ := tiltedTrace(100, 1000, 0.3)
	s := Decompose(tr)
	if len(s.Vertical) != 1000 {
		t.Fatalf("len = %d", len(s.Vertical))
	}
	var worst float64
	for i := 200; i < 1000; i++ {
		if d := math.Abs(s.Vertical[i] - vert[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.25 {
		t.Errorf("worst vertical error = %v", worst)
	}
}

func TestProjectWindowRecoversAnterior(t *testing.T) {
	tr, _, ant := tiltedTrace(100, 1000, 0.3)
	s := Decompose(tr)
	w := s.ProjectWindow(200, 800)
	if !w.OK {
		t.Fatal("projection failed")
	}
	// Anterior recovered up to sign.
	corr := dsp.Pearson(w.Anterior, ant[200:800])
	if math.Abs(corr) < 0.98 {
		t.Errorf("anterior correlation = %v", corr)
	}
}

func TestProjectWindowSignStabilisation(t *testing.T) {
	tr, _, _ := tiltedTrace(100, 1200, 0.3)
	s := Decompose(tr)
	w1 := s.ProjectWindow(100, 400)
	w2 := s.ProjectWindow(400, 700)
	w3 := s.ProjectWindow(700, 1000)
	for i, w := range []Window{w1, w2, w3} {
		if !w.OK {
			t.Fatalf("window %d failed", i)
		}
	}
	if w1.Axis.Dot(w2.Axis) < 0 || w2.Axis.Dot(w3.Axis) < 0 {
		t.Error("axis sign flipped between consecutive windows")
	}
}

func TestProjectWindowClampsBounds(t *testing.T) {
	tr, _, _ := tiltedTrace(100, 300, 0.3)
	s := Decompose(tr)
	w := s.ProjectWindow(-50, 10000)
	if !w.OK || len(w.Vertical) != 300 {
		t.Errorf("clamped window: ok=%v len=%d", w.OK, len(w.Vertical))
	}
	if w2 := s.ProjectWindow(200, 100); w2.OK || len(w2.Vertical) != 0 {
		t.Error("inverted window should be empty")
	}
}

func TestProjectWindowNoHorizontalEnergy(t *testing.T) {
	// Pure vertical motion: no anterior axis can be fitted.
	rate := 100.0
	s := imu.NewSensor(imu.SensorConfig{SampleRate: rate, Seed: 1})
	tr := &trace.Trace{SampleRate: rate}
	for i := 0; i < 500; i++ {
		ti := float64(i) / rate
		world := vecmath.V3(0, 0, 2*math.Sin(2*math.Pi*2*ti))
		tr.Samples = append(tr.Samples, trace.Sample{T: ti, Accel: s.Read(world, vecmath.IdentityQuat())})
	}
	series := Decompose(tr)
	w := series.ProjectWindow(100, 400)
	// With zero noise and no horizontal signal, PCA has nothing to fit.
	// (The gravity-estimation residue may leave epsilon energy; accept
	// either a failed fit or a near-zero anterior series.)
	if w.OK {
		if rms := math.Sqrt(dsp.Energy(w.Anterior)); rms > 0.05 {
			t.Errorf("anterior rms = %v for vertical-only motion", rms)
		}
	}
}

func TestSmoothPreservesLength(t *testing.T) {
	tr, _, _ := tiltedTrace(100, 500, 0.2)
	s := Decompose(tr)
	w := s.ProjectWindow(0, 500)
	v, a := w.Smooth(4.5, 100)
	if len(v) != 500 || len(a) != 500 {
		t.Errorf("smoothed lengths %d, %d", len(v), len(a))
	}
}

func TestDecomposeOnSimulatedWalkVerticalBand(t *testing.T) {
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(), trace.ActivityWalking, 20)
	if err != nil {
		t.Fatal(err)
	}
	s := Decompose(rec.Trace)
	// Vertical channel must oscillate at the step frequency (~1.8 Hz).
	f := dsp.DominantFrequency(s.Vertical[500:], rec.Trace.SampleRate, 0.5, 4)
	if f < 1.4 || f > 2.2 {
		t.Errorf("vertical dominant frequency = %v, want ~1.8", f)
	}
}
