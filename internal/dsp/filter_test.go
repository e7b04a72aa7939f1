package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func sine(n int, freqHz, sampleRateHz, amp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = amp * math.Sin(2*math.Pi*freqHz*float64(i)/sampleRateHz)
	}
	return out
}

func TestNewLowPassBiquadValidation(t *testing.T) {
	tests := []struct {
		name       string
		cutoff, fs float64
		wantErr    bool
	}{
		{"valid", 3, 100, false},
		{"zero-cutoff", 0, 100, true},
		{"negative-cutoff", -1, 100, true},
		{"at-nyquist", 50, 100, true},
		{"above-nyquist", 70, 100, true},
		{"zero-rate", 3, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewLowPassBiquad(tt.cutoff, tt.fs)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestButterworthAttenuation(t *testing.T) {
	const fs = 100.0
	n := 2000
	low := sine(n, 1, fs, 1)   // in band
	high := sine(n, 25, fs, 1) // far above 3 Hz cutoff

	yLow := LowPassButterworth(low, 3, fs)
	yHigh := LowPassButterworth(high, 3, fs)

	rmsLow := RMS(yLow[n/4:])
	rmsHigh := RMS(yHigh[n/4:])
	if rmsLow < 0.6 {
		t.Errorf("in-band 1 Hz over-attenuated: rms %v", rmsLow)
	}
	// 2nd-order Butterworth: ~ -36 dB at 25 Hz vs 3 Hz cutoff.
	if rmsHigh > 0.05 {
		t.Errorf("out-of-band 25 Hz under-attenuated: rms %v", rmsHigh)
	}
}

func TestButterworthInvalidFallsBackToCopy(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	y := LowPassButterworth(x, 0, 100)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("expected copy at %d", i)
		}
	}
	// Must be a copy, not an alias.
	y[0] = 99
	if x[0] == 99 {
		t.Error("output aliases input")
	}
}

func TestBiquadApplyPrimesState(t *testing.T) {
	// A constant signal must pass through with no start-up transient.
	f, err := NewLowPassBiquad(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	for i := range x {
		x[i] = 9.81
	}
	y := f.Apply(x)
	for i, v := range y {
		if math.Abs(v-9.81) > 1e-6 {
			t.Fatalf("transient at %d: %v", i, v)
		}
	}
}

func TestFiltFiltZeroPhase(t *testing.T) {
	const fs = 100.0
	n := 600
	// A single smooth pulse: its (unique) peak must not move under
	// zero-phase filtering, while a causal filter would delay it.
	x := make([]float64, n)
	for i := range x {
		d := (float64(i) - 300) / 30
		x[i] = math.Exp(-d * d)
	}
	y := FiltFilt(x, 5, fs)
	yCausal := LowPassButterworth(x, 5, fs)
	xi := argmax(x)
	yi := argmax(y)
	ci := argmax(yCausal)
	if d := xi - yi; d < -1 || d > 1 {
		t.Errorf("filtfilt phase shift of %d samples, want ~0", d)
	}
	if ci <= xi {
		t.Errorf("causal filter should delay the peak (got %d vs %d)", ci, xi)
	}
}

func argmax(x []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func TestDetrendRemovesLine(t *testing.T) {
	n := 100
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 + 0.5*float64(i)
	}
	y := Detrend(x)
	for i, v := range y {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("residual %v at %d", v, i)
		}
	}
}

func TestDetrendShort(t *testing.T) {
	if y := Detrend([]float64{7}); len(y) != 1 || y[0] != 7 {
		t.Errorf("short detrend = %v", y)
	}
}

func TestRemoveMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, math.Mod(v, 1e6))
			}
		}
		y := RemoveMean(x)
		if len(x) == 0 {
			return len(y) == 0
		}
		return math.Abs(Mean(y)) < 1e-6*(1+MeanAbs(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	Reverse(x)
	want := []float64{4, 3, 2, 1}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("got %v", x)
		}
	}
	// Odd length and empty must not panic.
	Reverse([]float64{1, 2, 3})
	Reverse(nil)
}

// TestBiquadSettleLen checks the claimed convergence bound: two
// recursions over the same input started from different states must agree
// bitwise once SettleLen samples have been consumed.
func TestBiquadSettleLen(t *testing.T) {
	f1, err := NewLowPassBiquad(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := NewLowPassBiquad(5, 100)
	settle := f1.SettleLen(1e-24)
	if settle <= 0 || settle > 2000 {
		t.Fatalf("SettleLen = %d, want a usable positive bound", settle)
	}
	x := sine(settle+200, 2, 100, 1)
	f1.Seed(x[0])
	f2.Seed(x[0] + 50) // grossly wrong prime
	var y1, y2 float64
	for i, v := range x {
		y1, y2 = f1.Process(v), f2.Process(v)
		if i >= settle && y1 != y2 {
			t.Fatalf("outputs differ at sample %d (settle %d): %v vs %v", i, settle, y1, y2)
		}
	}
}

func TestBiquadSettleLenDegenerate(t *testing.T) {
	var f Biquad // zero value: a1 = a2 = 0, no transient memory
	if got := f.SettleLen(1e-24); got != 0 {
		t.Errorf("zero-value SettleLen = %d, want 0", got)
	}
	f2, _ := NewLowPassBiquad(5, 100)
	if got := f2.SettleLen(0); got != 0 {
		t.Errorf("tol=0 SettleLen = %d, want 0", got)
	}
}

// TestBiquadSeedMatchesApplyPriming pins Seed to the priming Apply uses.
func TestBiquadSeedMatchesApplyPriming(t *testing.T) {
	x := sine(100, 3, 100, 1)
	f1, _ := NewLowPassBiquad(5, 100)
	want := f1.Apply(x)
	f2, _ := NewLowPassBiquad(5, 100)
	f2.Seed(x[0])
	for i, v := range x {
		if got := f2.Process(v); got != want[i] {
			t.Fatalf("sample %d: Seed+Process = %v, Apply = %v", i, got, want[i])
		}
	}
}
