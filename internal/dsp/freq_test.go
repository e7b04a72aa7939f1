package dsp

import (
	"math"
	"testing"
)

func TestGoertzelDetectsTone(t *testing.T) {
	const fs = 100.0
	x := sine(500, 5, fs, 1)
	at5 := Goertzel(x, 5, fs)
	at12 := Goertzel(x, 12, fs)
	if at5 <= 10*at12 {
		t.Errorf("tone power %v not dominant over off-bin %v", at5, at12)
	}
}

func TestGoertzelEmpty(t *testing.T) {
	if got := Goertzel(nil, 5, 100); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := Goertzel([]float64{1, 2}, 5, 0); got != 0 {
		t.Errorf("zero rate = %v", got)
	}
}

func TestDominantFrequency(t *testing.T) {
	const fs = 100.0
	tests := []struct {
		name string
		freq float64
	}{
		{"walking-cadence", 1.8},
		{"jogging-cadence", 2.6},
		{"slow", 0.8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := sine(1000, tt.freq, fs, 1)
			got := DominantFrequency(x, fs, 0.3, 5)
			if math.Abs(got-tt.freq) > 0.15 {
				t.Errorf("freq = %v, want %v", got, tt.freq)
			}
		})
	}
}

func TestDominantFrequencyIgnoresDC(t *testing.T) {
	const fs = 100.0
	x := sine(1000, 2, fs, 0.5)
	for i := range x {
		x[i] += 9.81 // strong DC (gravity)
	}
	got := DominantFrequency(x, fs, 0.3, 5)
	if math.Abs(got-2) > 0.15 {
		t.Errorf("freq = %v, want 2 despite DC", got)
	}
}

func TestDominantFrequencyDegenerate(t *testing.T) {
	if got := DominantFrequency([]float64{1, 2}, 100, 1, 5); got != 0 {
		t.Errorf("short input = %v", got)
	}
	if got := DominantFrequency(sine(100, 2, 100, 1), 100, 5, 1); got != 0 {
		t.Errorf("empty band = %v", got)
	}
}

// TestDominantFrequencyBandEdge locks the integer-bin iteration: a tone
// sitting exactly on the last bin inside [minHz, maxHz] must be found.
// The old floating accumulator (f += df) drifted over many bins and could
// skip or duplicate the band edge.
func TestDominantFrequencyBandEdge(t *testing.T) {
	const fs = 100.0
	n := 700 // df = 1/7 Hz: not exactly representable, accumulates drift
	df := fs / float64(n)
	k := 42 // tone on bin 42 = 6.0 Hz exactly at maxHz
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k) * df * float64(i) / fs)
	}
	got := DominantFrequency(x, fs, 0.3, float64(k)*df)
	if math.Abs(got-float64(k)*df) > df/2 {
		t.Errorf("band-edge tone: got %v Hz, want %v Hz", got, float64(k)*df)
	}
}

// TestDominantFrequencyBinsExact checks the scan evaluates exact bin
// frequencies k·df rather than a drifting accumulator.
func TestDominantFrequencyBinsExact(t *testing.T) {
	const fs = 50.0
	x := sine(300, 4, fs, 1)
	got := DominantFrequency(x, fs, 0.5, 10)
	df := fs / 300
	k := math.Round(got / df)
	if got != k*df {
		t.Errorf("returned frequency %v is not an exact bin multiple of df=%v", got, df)
	}
	if math.Abs(got-4) > df {
		t.Errorf("tone at 4 Hz found at %v Hz", got)
	}
}
