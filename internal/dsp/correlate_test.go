package dsp

import (
	"math"
	"testing"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if got := Pearson(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("pearson = %v, want 1", got)
	}
	c := []float64{8, 6, 4, 2}
	if got := Pearson(a, c); math.Abs(got+1) > 1e-12 {
		t.Errorf("pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("zero-variance pearson = %v, want 0", got)
	}
	if got := Pearson([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("short pearson = %v, want 0", got)
	}
	if got := Pearson([]float64{1, 2}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("mismatched pearson = %v, want 0", got)
	}
}

func TestAutoCorrPeriodicSignal(t *testing.T) {
	const fs = 100.0
	x := sine(400, 2, fs, 1) // period = 50 samples
	if got := AutoCorrAt(x, 50); got < 0.95 {
		t.Errorf("autocorr at full period = %v, want ~1", got)
	}
	if got := AutoCorrAt(x, 25); got > -0.95 {
		t.Errorf("autocorr at half period = %v, want ~-1", got)
	}
	// Negative lag is symmetric.
	if got, want := AutoCorrAt(x, -50), AutoCorrAt(x, 50); math.Abs(got-want) > 1e-12 {
		t.Errorf("negative lag = %v, want %v", got, want)
	}
}

// The paper's stepping test statistic C (§III-B1) is the auto-correlation
// of one gait cycle at half the cycle length, which gaitid evaluates on
// a LagCorrelator.
func TestHalfCycleCorrelation(t *testing.T) {
	var k LagCorrelator
	halfCycleC := func(cycle []float64) float64 {
		k.ResetAuto(cycle)
		c, _ := k.At(len(cycle) / 2)
		return c
	}
	// Signal repeating twice within the window: strongly positive C, the
	// paper's stepping signature.
	cycle := make([]float64, 100)
	for i := range cycle {
		cycle[i] = math.Sin(2 * math.Pi * 2 * float64(i) / 100) // 2 periods in window
	}
	if c := halfCycleC(cycle); c < 0.9 {
		t.Errorf("stepping-like C = %v, want ~1", c)
	}
	// Single period: second half is the mirror of the first -> strongly
	// negative C, the arm-gesture signature.
	for i := range cycle {
		cycle[i] = math.Sin(2 * math.Pi * float64(i) / 100)
	}
	if c := halfCycleC(cycle); c > -0.9 {
		t.Errorf("gesture-like C = %v, want ~-1", c)
	}
}

func TestCrossCorrBestLagFindsShift(t *testing.T) {
	const n = 200
	a := sine(n, 2, 100, 1)
	shift := 10
	b := make([]float64, n)
	copy(b[shift:], a[:n-shift]) // b delayed by `shift` samples
	lag, corr := CrossCorrBestLag(a, b, 20)
	if lag != shift {
		t.Errorf("lag = %d, want %d", lag, shift)
	}
	if corr < 0.95 {
		t.Errorf("corr = %v, want ~1", corr)
	}
	// Symmetric case: a delayed relative to b gives negative lag.
	lag, _ = CrossCorrBestLag(b, a, 20)
	if lag != -shift {
		t.Errorf("reverse lag = %d, want %d", lag, -shift)
	}
}

func TestCrossCorrBestLagDegenerate(t *testing.T) {
	lag, corr := CrossCorrBestLag([]float64{1}, []float64{1}, 5)
	if lag != 0 || corr != 0 {
		t.Errorf("degenerate = (%d, %v), want (0, 0)", lag, corr)
	}
}

func TestDominantLag(t *testing.T) {
	x := sine(500, 2, 100, 1) // 50-sample period
	lag := DominantLag(x, 20, 100, 0.5)
	if lag < 48 || lag > 52 {
		t.Errorf("dominant lag = %d, want ~50", lag)
	}
	// Pure noise-free DC has no periodic peak.
	flat := make([]float64, 100)
	if lag := DominantLag(flat, 5, 50, 0.5); lag != 0 {
		t.Errorf("flat lag = %d, want 0", lag)
	}
}
