package gaitid

import (
	"math"
	"testing"
)

func sine2(n int, periods, amp, phase float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = amp * math.Sin(2*math.Pi*periods*float64(i)/float64(n)+phase)
	}
	return out
}

func TestTurningPoints(t *testing.T) {
	// Two full periods: 4 extrema.
	x := sine2(200, 2, 1, 0)
	tp := turningPoints(x, 0.2)
	if len(tp) != 4 {
		t.Fatalf("turning points = %v", tp)
	}
	// Sorted and within bounds.
	for i := 1; i < len(tp); i++ {
		if tp[i] <= tp[i-1] {
			t.Fatal("not sorted")
		}
	}
}

func TestTurningPointsProminenceFilter(t *testing.T) {
	// Small ripple on a large wave: high prominence keeps only the big
	// extrema.
	x := sine2(400, 2, 1, 0)
	r := sine2(400, 20, 0.05, 0.3)
	for i := range x {
		x[i] += r[i]
	}
	few := turningPoints(x, 0.5)
	many := turningPoints(x, 0.01)
	if len(few) >= len(many) {
		t.Errorf("prominence filter ineffective: %d vs %d", len(few), len(many))
	}
	if len(few) != 4 {
		t.Errorf("big extrema = %d, want 4", len(few))
	}
}

func TestCriticalPointsIncludesZeros(t *testing.T) {
	x := sine2(200, 2, 1, 0)
	cp := criticalPoints(x, 0.2)
	tp := turningPoints(x, 0.2)
	if len(cp) <= len(tp) {
		t.Errorf("critical points %d should exceed turning points %d", len(cp), len(tp))
	}
	// Deduplicated and sorted.
	for i := 1; i < len(cp); i++ {
		if cp[i] <= cp[i-1] {
			t.Fatalf("not strictly sorted: %v", cp)
		}
	}
}

func TestNearestDistance(t *testing.T) {
	cands := []int{10, 20, 40}
	tests := []struct {
		v    int
		want int
	}{
		{10, 0},
		{14, 4},
		{16, 4},
		{29, 9},
		{100, 60},
		{0, 10},
	}
	for _, tt := range tests {
		if got := nearestDistance(tt.v, cands); got != tt.want {
			t.Errorf("nearest(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestOffsetMetricSynchronizedRigidMotion(t *testing.T) {
	// A rigid pendulum: anterior at f, vertical at 2f with the vertical
	// extrema aligned to anterior extrema/zeros (the paper's Fig. 3(b)).
	n := 200
	ant := make([]float64, n)
	vert := make([]float64, n)
	for i := 0; i < n; i++ {
		ph := 2 * math.Pi * float64(i) / float64(n)
		ant[i] = math.Cos(ph)       // extrema at 0, n/2; zeros at n/4, 3n/4
		vert[i] = -math.Cos(2 * ph) // extrema at 0, n/4, n/2, 3n/4
	}
	off, ok := OffsetMetricMargin(vert, ant, 0)
	if !ok {
		t.Fatal("no offset")
	}
	if off > 0.009 {
		t.Errorf("rigid offset = %v, want ~0", off)
	}
}

func TestOffsetMetricDesynchronizedWalking(t *testing.T) {
	// Shift the vertical by an eighth of the cycle: offsets ~0.045+.
	n := 200
	ant := make([]float64, n)
	vert := make([]float64, n)
	for i := 0; i < n; i++ {
		ph := 2 * math.Pi * float64(i) / float64(n)
		ant[i] = math.Cos(ph)
		vert[i] = -math.Cos(2*ph - 0.8)
	}
	off, ok := OffsetMetricMargin(vert, ant, 0)
	if !ok {
		t.Fatal("no offset")
	}
	if off < 0.025 {
		t.Errorf("desynchronised offset = %v, want > 0.025", off)
	}
}

func TestOffsetMetricDegenerate(t *testing.T) {
	if _, ok := OffsetMetricMargin(nil, nil, 0); ok {
		t.Error("empty should fail")
	}
	if _, ok := OffsetMetricMargin([]float64{1, 2}, []float64{1}, 0); ok {
		t.Error("length mismatch should fail")
	}
	// Flat signals: no critical points.
	flat := make([]float64, 100)
	if _, ok := OffsetMetricMargin(flat, flat, 0); ok {
		t.Error("flat should fail")
	}
}

func TestOffsetMetricMarginRestrictsAnchors(t *testing.T) {
	n := 240
	margin := 40
	ant := make([]float64, n)
	vert := make([]float64, n)
	for i := 0; i < n; i++ {
		ph := 2 * math.Pi * float64(i-margin) / float64(n-2*margin)
		ant[i] = math.Cos(ph)
		vert[i] = -math.Cos(2 * ph)
	}
	off, ok := OffsetMetricMargin(vert, ant, margin)
	if !ok {
		t.Fatal("no offset")
	}
	if off > 0.009 {
		t.Errorf("margin rigid offset = %v, want ~0", off)
	}
	// Bad margins fall back to no margin rather than failing.
	if _, ok := OffsetMetricMargin(vert, ant, n); !ok {
		t.Error("oversized margin should degrade, not fail")
	}
	if _, ok := OffsetMetricMargin(vert, ant, -3); !ok {
		t.Error("negative margin should degrade, not fail")
	}
}

func TestOffsetMetricMonotoneInShift(t *testing.T) {
	// The metric should grow with the desynchronisation phase.
	n := 200
	prev := -1.0
	for _, shift := range []float64{0, 0.3, 0.6, 0.9} {
		ant := make([]float64, n)
		vert := make([]float64, n)
		for i := 0; i < n; i++ {
			ph := 2 * math.Pi * float64(i) / float64(n)
			ant[i] = math.Cos(ph)
			vert[i] = -math.Cos(2*ph - shift)
		}
		off, ok := OffsetMetricMargin(vert, ant, 0)
		if !ok {
			t.Fatalf("no offset at shift %v", shift)
		}
		if off < prev {
			t.Errorf("offset not monotone: %v after %v (shift %v)", off, prev, shift)
		}
		prev = off
	}
}
