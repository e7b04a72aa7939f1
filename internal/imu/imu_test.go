package imu

import (
	"math"
	"testing"

	"ptrack/internal/vecmath"
)

func TestSensorAtRestReadsGravity(t *testing.T) {
	s := NewSensor(SensorConfig{SampleRate: 100, Seed: 1}) // no noise, no bias
	got := s.Read(vecmath.Vec3{}, vecmath.IdentityQuat())
	want := vecmath.V3(0, 0, StandardGravity)
	if got.Sub(want).Norm() > 1e-9 {
		t.Errorf("rest reading = %v, want %v", got, want)
	}
}

func TestSensorTiltedReadsRotatedGravity(t *testing.T) {
	s := NewSensor(SensorConfig{SampleRate: 100, Seed: 1})
	// Device rotated 90 degrees about X: device Y now points world up...
	// attitude maps device->world; world up in device frame is
	// attitude^-1 * (0,0,1).
	att := vecmath.AxisAngle(vecmath.V3(1, 0, 0), math.Pi/2)
	got := s.Read(vecmath.Vec3{}, att)
	want := att.Conj().Rotate(vecmath.V3(0, 0, StandardGravity))
	if got.Sub(want).Norm() > 1e-9 {
		t.Errorf("tilted reading = %v, want %v", got, want)
	}
	if math.Abs(got.Norm()-StandardGravity) > 1e-9 {
		t.Errorf("magnitude = %v, want G", got.Norm())
	}
}

func TestSensorBiasAndNoise(t *testing.T) {
	bias := vecmath.V3(0.5, 0, 0)
	s := NewSensor(SensorConfig{SampleRate: 100, NoiseStd: 0.1, Bias: bias, Seed: 7})
	// Average many rest readings: noise averages out, bias remains.
	var sum vecmath.Vec3
	const n = 20000
	for i := 0; i < n; i++ {
		sum = sum.Add(s.Read(vecmath.Vec3{}, vecmath.IdentityQuat()))
	}
	mean := sum.Scale(1.0 / n)
	want := vecmath.V3(0.5, 0, StandardGravity)
	if mean.Sub(want).Norm() > 0.01 {
		t.Errorf("mean reading = %v, want %v", mean, want)
	}
}

func TestSensorDeterministicWithSeed(t *testing.T) {
	a := NewSensor(SensorConfig{SampleRate: 100, NoiseStd: 0.1, Seed: 3})
	b := NewSensor(SensorConfig{SampleRate: 100, NoiseStd: 0.1, Seed: 3})
	for i := 0; i < 100; i++ {
		ra := a.Read(vecmath.V3(1, 2, 3), vecmath.IdentityQuat())
		rb := b.Read(vecmath.V3(1, 2, 3), vecmath.IdentityQuat())
		if ra != rb {
			t.Fatalf("sample %d differs: %v vs %v", i, ra, rb)
		}
	}
}

func TestSensorDefaultsAndRateNormalisation(t *testing.T) {
	s := NewSensor(SensorConfig{})
	if s.SampleRate() != 100 {
		t.Errorf("rate = %v, want 100", s.SampleRate())
	}
	cfg := DefaultSensorConfig()
	if cfg.SampleRate <= 0 || cfg.NoiseStd <= 0 {
		t.Errorf("default config not sane: %+v", cfg)
	}
}

func TestReadYaw(t *testing.T) {
	s := NewSensor(SensorConfig{Seed: 5})
	if got := s.ReadYaw(1.25, 0); got != 1.25 {
		t.Errorf("noise-free yaw = %v", got)
	}
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += s.ReadYaw(0.5, 0.05)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean yaw = %v, want 0.5", mean)
	}
}

func TestGravityEstimatorConverges(t *testing.T) {
	g := NewGravityEstimator(0.3, 100)
	truth := vecmath.V3(0, 0, StandardGravity)
	// Gravity plus a 2 Hz oscillation: estimate must settle near truth.
	var est vecmath.Vec3
	for i := 0; i < 3000; i++ {
		osc := vecmath.V3(0, 0, 2*math.Sin(2*math.Pi*2*float64(i)/100))
		est = g.Update(truth.Add(osc))
	}
	if est.Sub(truth).Norm() > 0.3 {
		t.Errorf("gravity estimate = %v, want ~%v", est, truth)
	}
	if got := g.Gravity(); got != est {
		t.Error("Gravity() disagrees with last Update result")
	}
}

func TestGravityEstimatorPrimesOnFirstSample(t *testing.T) {
	g := NewGravityEstimator(0.3, 100)
	first := vecmath.V3(1, 2, 3)
	if got := g.Update(first); got != first {
		t.Errorf("first update = %v, want %v", got, first)
	}
}

func TestProjectorVerticalRecovery(t *testing.T) {
	const fs = 100.0
	p := NewProjector(0.3, fs)
	// Device tilted arbitrarily but statically; vertical linear accel is a
	// 2 Hz sine in the world frame.
	att := vecmath.AxisAngle(vecmath.V3(1, 1, 0), 0.7)
	s := NewSensor(SensorConfig{SampleRate: fs, Seed: 2})
	rest := s.Read(vecmath.Vec3{}, att)
	p.Prime(rest)

	n := 400
	worst := 0.0
	for i := 0; i < n; i++ {
		truth := 1.5 * math.Sin(2*math.Pi*2*float64(i)/fs)
		raw := s.Read(vecmath.V3(0, 0, truth), att)
		proj := p.Project(raw)
		if i > 100 { // allow the gravity filter to re-settle
			if d := math.Abs(proj.Vertical - truth); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.35 {
		t.Errorf("worst vertical error = %v, want < 0.35", worst)
	}
}

func TestProjectorHorizontalEnergySeparation(t *testing.T) {
	const fs = 100.0
	p := NewProjector(0.3, fs)
	att := vecmath.IdentityQuat()
	s := NewSensor(SensorConfig{SampleRate: fs, Seed: 3})
	p.Prime(s.Read(vecmath.Vec3{}, att))

	// Pure horizontal world-frame oscillation: vertical projection must
	// stay small, horizontal must carry the energy.
	var vertE, horizE float64
	n := 400
	for i := 0; i < n; i++ {
		truth := vecmath.V3(2*math.Sin(2*math.Pi*1.5*float64(i)/fs), 0, 0)
		proj := p.Project(s.Read(truth, att))
		if i > 100 {
			vertE += proj.Vertical * proj.Vertical
			horizE += proj.H1*proj.H1 + proj.H2*proj.H2
		}
	}
	if vertE > horizE/10 {
		t.Errorf("vertical energy %v not well below horizontal %v", vertE, horizE)
	}
}

func TestProjectorGravityAlongDeviceX(t *testing.T) {
	// Degenerate basis case: device X points straight up, forcing the
	// fallback horizontal basis. Must not produce NaNs.
	p := NewProjector(0.3, 100)
	att := vecmath.AxisAngle(vecmath.V3(0, 1, 0), math.Pi/2) // device X -> world up? rotate to make it so
	s := NewSensor(SensorConfig{SampleRate: 100, Seed: 4})
	rest := s.Read(vecmath.Vec3{}, att)
	p.Prime(rest)
	proj := p.Project(rest)
	if math.IsNaN(proj.Vertical) || math.IsNaN(proj.H1) || math.IsNaN(proj.H2) {
		t.Errorf("NaN in projection: %+v", proj)
	}
}
