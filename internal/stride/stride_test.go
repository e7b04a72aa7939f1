package stride

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStrideFromBounce(t *testing.T) {
	// s = k*sqrt(l^2 - (l-b)^2); with l=0.9, b=0.05, k=2.35:
	// sqrt(0.81 - 0.7225) = 0.29580...; s = 0.69514...
	got := StrideFromBounce(0.05, 0.9, 2.35)
	want := 2.35 * math.Sqrt(0.9*0.9-0.85*0.85)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("stride = %v, want %v", got, want)
	}
}

func TestStrideFromBounceClamps(t *testing.T) {
	if got := StrideFromBounce(-0.1, 0.9, 1); got != 0 {
		t.Errorf("negative bounce stride = %v, want 0", got)
	}
	// b > l clamps to the full chord k*l.
	if got := StrideFromBounce(2, 0.9, 1); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("overlarge bounce stride = %v, want 0.9", got)
	}
}

func TestSolveBounceRoundTrip(t *testing.T) {
	// Construct consistent (h1, h2, d) from known geometry and recover b.
	const m = 0.62
	tests := []struct {
		name   string
		b      float64
		r1, r2 float64
	}{
		{"typical", 0.045, 0.08, 0.08},
		{"asymmetric", 0.03, 0.06, 0.10},
		{"small-bounce", 0.01, 0.05, 0.05},
		{"large-bounce", 0.09, 0.12, 0.14},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h1 := tt.r1 - tt.b
			h2 := tt.r2 - tt.b
			d := chord(tt.r1, m) + chord(tt.r2, m)
			got, ok := SolveBounce(h1, h2, d, m)
			if !ok {
				t.Fatalf("no solution for %+v", tt)
			}
			if math.Abs(got-tt.b) > 1e-9 {
				t.Errorf("bounce = %v, want %v", got, tt.b)
			}
		})
	}
}

func TestSolveBounceDegenerate(t *testing.T) {
	if _, ok := SolveBounce(0.05, 0.05, 0.3, 0); ok {
		t.Error("zero arm should fail")
	}
	if _, ok := SolveBounce(0.05, 0.05, 0, 0.62); ok {
		t.Error("zero d should fail")
	}
	// d too small: even b=0 overshoots; clamped, not ok.
	b, ok := SolveBounce(0.3, 0.3, 0.01, 0.62)
	if ok {
		t.Error("tiny d should not report ok")
	}
	if b < 0 {
		t.Errorf("clamped bounce negative: %v", b)
	}
	// d too large: no bounce reaches it.
	if _, ok := SolveBounce(0.0, 0.0, 10, 0.62); ok {
		t.Error("huge d should not report ok")
	}
}

func TestSolveBounceRoundTripProperty(t *testing.T) {
	const m = 0.62
	f := func(bRaw, r1Raw, r2Raw float64) bool {
		b := 0.005 + math.Mod(math.Abs(bRaw), 0.08)
		r1 := b + 0.02 + math.Mod(math.Abs(r1Raw), 0.15)
		r2 := b + 0.02 + math.Mod(math.Abs(r2Raw), 0.15)
		if r1 >= m || r2 >= m {
			return true
		}
		d := chord(r1, m) + chord(r2, m)
		got, ok := SolveBounce(r1-b, r2-b, d, m)
		return ok && math.Abs(got-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{ArmLength: 0.6, LegLength: 0.9, K: 2.3}, false},
		{"no-arm", Config{LegLength: 0.9, K: 2.3}, true},
		{"no-leg", Config{ArmLength: 0.6, K: 2.3}, true},
		{"no-k", Config{ArmLength: 0.6, LegLength: 0.9}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v", err)
			}
		})
	}
}

func TestEstimatorConfigDefaults(t *testing.T) {
	if smoothCutoffHz != 4.5 || minStepFraction != 0.3 || maxStepFraction != 0.7 {
		t.Errorf("constants = %v, %v, %v", smoothCutoffHz, minStepFraction, maxStepFraction)
	}
}

// synthWalkWindow builds an analytic projected walking window: arm
// pendulum + body bounce with known geometry, no noise. Returns the
// series, the margin, and the true per-step stride.
func synthWalkWindow(armLen, leg, k, bounce float64, sampleRate float64) (vert, ant []float64, margin int, trueStride float64) {
	const (
		cadence = 1.8 // steps/s
		swing   = 0.35
	)
	omega := 2 * math.Pi * cadence / 2
	period := 2 / cadence
	total := int(1.5 * period * sampleRate)
	margin = int(0.25 * period * sampleRate)
	vert = make([]float64, total)
	ant = make([]float64, total)
	for i := range vert {
		tau := float64(i-margin) / sampleRate
		theta := -swing * math.Cos(omega*tau)
		thetaDot := swing * omega * math.Sin(omega*tau)
		thetaDDot := swing * omega * omega * math.Cos(omega*tau)
		ax := armLen * (thetaDDot*math.Cos(theta) - thetaDot*thetaDot*math.Sin(theta))
		az := armLen * (thetaDDot*math.Sin(theta) + thetaDot*thetaDot*math.Cos(theta))
		bodyZ := bounce / 2 * 4 * omega * omega * math.Cos(2*omega*tau)
		bodyX := 1.2 * math.Sin(2*omega*tau)
		vert[i] = az + bodyZ
		ant[i] = ax + bodyX
	}
	d := leg - bounce
	trueStride = k * math.Sqrt(leg*leg-d*d)
	return vert, ant, margin, trueStride
}

func TestEstimateWalkingOnAnalyticSignal(t *testing.T) {
	const (
		armLen = 0.62
		leg    = 0.90
		k      = 2.35
		bounce = 0.0497
		fs     = 100.0
	)
	vert, ant, margin, trueStride := synthWalkWindow(armLen, leg, k, bounce, fs)
	e, err := New(Config{ArmLength: armLen, LegLength: leg, K: k})
	if err != nil {
		t.Fatal(err)
	}
	steps := e.EstimateWalking(vert, ant, margin, fs)
	if len(steps) == 0 {
		t.Fatal("no steps estimated")
	}
	for _, s := range steps {
		if math.Abs(s.Bounce-bounce) > 0.02 {
			t.Errorf("bounce = %v, want ~%v (h1=%v h2=%v d=%v)", s.Bounce, bounce, s.H1, s.H2, s.D)
		}
		if math.Abs(s.Stride-trueStride) > 0.12 {
			t.Errorf("stride = %v, want ~%v", s.Stride, trueStride)
		}
	}
}

func TestEstimateWalkingDegenerate(t *testing.T) {
	e, _ := New(Config{ArmLength: 0.6, LegLength: 0.9, K: 2.3})
	if s := e.EstimateWalking(nil, nil, 0, 100); s != nil {
		t.Error("nil input should yield nothing")
	}
	flat := make([]float64, 100)
	if s := e.EstimateWalking(flat, flat, 10, 100); len(s) != 0 {
		t.Errorf("flat input yielded %d steps", len(s))
	}
	if s := e.EstimateWalking(flat, flat[:50], 0, 100); s != nil {
		t.Error("mismatched input should yield nothing")
	}
}

func TestEstimateSteppingOnAnalyticSignal(t *testing.T) {
	const (
		leg    = 0.90
		k      = 2.35
		bounce = 0.0497
		fs     = 100.0
	)
	// Pure body bounce: z'' = (b/2)(2w)^2 cos(2wt).
	omega := 2 * math.Pi * 0.9
	period := 2 * math.Pi / omega
	total := int(1.5 * period * fs)
	margin := int(0.25 * period * fs)
	vert := make([]float64, total)
	for i := range vert {
		tau := float64(i-margin) / fs
		vert[i] = bounce / 2 * 4 * omega * omega * math.Cos(2*omega*tau)
	}
	e, _ := New(Config{ArmLength: 0.62, LegLength: leg, K: k})
	steps := e.EstimateStepping(vert, margin, fs)
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	for _, s := range steps {
		if math.Abs(s.Bounce-bounce) > 0.008 {
			t.Errorf("bounce = %v, want ~%v", s.Bounce, bounce)
		}
	}
}

func TestEstimateSteppingDegenerate(t *testing.T) {
	e, _ := New(Config{ArmLength: 0.6, LegLength: 0.9, K: 2.3})
	if s := e.EstimateStepping(nil, 0, 100); s != nil {
		t.Error("nil input should yield nothing")
	}
	if s := e.EstimateStepping(make([]float64, 8), 0, 100); s != nil {
		t.Error("short input should yield nothing")
	}
}
