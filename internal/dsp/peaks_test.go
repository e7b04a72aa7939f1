package dsp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestLocalExtremaSimple(t *testing.T) {
	x := []float64{0, 1, 0, -1, 0, 2, 0}
	ext := appendLocalExtrema(nil, x)
	want := []Extremum{
		{Index: 1, Value: 1, Max: true},
		{Index: 3, Value: -1, Max: false},
		{Index: 5, Value: 2, Max: true},
	}
	if !reflect.DeepEqual(ext, want) {
		t.Errorf("extrema = %+v, want %+v", ext, want)
	}
}

func TestLocalExtremaPlateau(t *testing.T) {
	x := []float64{0, 2, 2, 2, 0}
	ext := appendLocalExtrema(nil, x)
	if len(ext) != 1 || !ext[0].Max || ext[0].Index != 2 {
		t.Errorf("plateau extrema = %+v", ext)
	}
}

func TestLocalExtremaEdgesIgnored(t *testing.T) {
	// Monotone signals have no interior extrema.
	if ext := appendLocalExtrema(nil, []float64{1, 2, 3, 4}); len(ext) != 0 {
		t.Errorf("monotone gave %+v", ext)
	}
	if ext := appendLocalExtrema(nil, []float64{1, 2}); len(ext) != 0 {
		t.Errorf("short gave %+v", ext)
	}
}

func TestFindPeaksMinDistanceKeepsTallest(t *testing.T) {
	x := []float64{0, 3, 0, 5, 0, 1, 0}
	// Peaks at 1 (h=3), 3 (h=5), 5 (h=1); with distance 3 only index 3
	// survives among {1,3}, and 5 is within 2 of 3 so it is removed too.
	got := FindPeaks(x, PeakOptions{MinDistance: 3})
	want := []int{3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("peaks = %v, want %v", got, want)
	}
}

func TestFindPeaksProminence(t *testing.T) {
	// A ripple riding on a big peak has low prominence.
	x := []float64{0, 10, 9.5, 9.8, 0}
	got := FindPeaks(x, PeakOptions{MinProminence: 1})
	want := []int{1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("peaks = %v, want %v", got, want)
	}
	// Lower bar keeps the ripple.
	got = FindPeaks(x, PeakOptions{MinProminence: 0.1})
	want = []int{1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("peaks = %v, want %v", got, want)
	}
}

func TestFindPeaksOnPeriodicSignal(t *testing.T) {
	// 2 Hz sine at 100 Hz for 5 s => 10 peaks.
	x := sine(500, 2, 100, 1)
	got := FindPeaks(x, PeakOptions{MinDistance: 25})
	if len(got) != 10 {
		t.Errorf("peak count = %d, want 10 (%v)", len(got), got)
	}
}

func TestZeroCrossings(t *testing.T) {
	x := []float64{1, 0.5, -0.5, -1, -0.5, 0.5, 1}
	got := ZeroCrossings(x)
	want := []int{1, 4} // nearest-sample convention: crossing between 1..2 at frac 0.5->index 2? see below
	// crossing between i=1 (0.5) and i=2 (-0.5): frac = 0.5 => reported at i+1 = 2.
	// crossing between i=4 (-0.5) and i=5 (0.5): frac = 0.5 => reported at 5.
	want = []int{2, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crossings = %v, want %v", got, want)
	}
}

func TestZeroCrossingsExactZero(t *testing.T) {
	x := []float64{1, 0, -1, 0, 1}
	got := ZeroCrossings(x)
	want := []int{1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("crossings = %v, want %v", got, want)
	}
}

func TestZeroCrossingsTouchWithoutCross(t *testing.T) {
	// Touches zero but does not change sign: no crossing.
	x := []float64{1, 0, 1, 0.5, 1}
	if got := ZeroCrossings(x); len(got) != 0 {
		t.Errorf("crossings = %v, want none", got)
	}
}

func TestZeroCrossingCountOnSine(t *testing.T) {
	// 2 Hz for 3 s crosses zero ~12 times (2 per period, 6 periods), minus
	// edge effects.
	x := sine(300, 2, 100, 1)
	got := ZeroCrossings(x)
	if len(got) < 10 || len(got) > 13 {
		t.Errorf("crossing count = %d, want ~12", len(got))
	}
}

func TestProminenceAgainstSignalEdge(t *testing.T) {
	// Peak whose basin extends to the signal edge.
	x := []float64{5, 1, 4, 1, 5}
	p := prominence(x, 2)
	if math.Abs(p-3) > 1e-12 {
		t.Errorf("prominence = %v, want 3", p)
	}
}

// TestPeakFinderMatchesFindPeaks fuzzes the scratch-reusing finder
// against the allocating reference across option combinations, reusing
// one finder for every case to exercise stale-scratch paths.
func TestPeakFinderMatchesFindPeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var pf PeakFinder
	optsSet := []PeakOptions{
		{},
		{MinProminence: 0.5},
		{MinDistance: 7},
		{MinProminence: 0.3, MinDistance: 11},
		{MinProminence: 0.4, MinDistance: 5},
	}
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i)/3) + rng.NormFloat64()
			if rng.Intn(5) == 0 && i > 0 {
				x[i] = x[i-1] // inject plateaus
			}
		}
		for _, opts := range optsSet {
			want := FindPeaks(x, opts)
			got := pf.Find(x, opts)
			if len(got) != len(want) {
				t.Fatalf("trial %d opts %+v: %d peaks, want %d", trial, opts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d opts %+v: peak[%d] = %d, want %d", trial, opts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestProminenceAtMatchesSampleScan fuzzes the extrema-walking prominence
// in PeakFinder against the sample-level scan, including plateaus,
// duplicate heights and basins that run off the signal edges.
func TestProminenceAtMatchesSampleScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pf PeakFinder
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(300)
		x := make([]float64, n)
		for i := range x {
			// Quantised values force exact ties and plateaus.
			x[i] = float64(rng.Intn(9)) / 2
			if rng.Intn(4) == 0 && i > 0 {
				x[i] = x[i-1]
			}
		}
		pf.ext = appendLocalExtrema(pf.ext[:0], x)
		for k, e := range pf.ext {
			if !e.Max {
				continue
			}
			got := pf.prominenceAt(x, k)
			want := prominence(x, e.Index)
			if got != want {
				t.Fatalf("trial %d peak at %d: prominenceAt = %v, prominence = %v\nx = %v",
					trial, e.Index, got, want, x)
			}
		}
	}
}

func TestPeakFinderSteadyStateAllocFree(t *testing.T) {
	x := sine(600, 2, 100, 1)
	opts := PeakOptions{MinProminence: 0.5, MinDistance: 10}
	var pf PeakFinder
	pf.Find(x, opts) // grow scratch
	allocs := testing.AllocsPerRun(50, func() { pf.Find(x, opts) })
	if allocs != 0 {
		t.Errorf("steady-state Find allocates %v times per run, want 0", allocs)
	}
}
