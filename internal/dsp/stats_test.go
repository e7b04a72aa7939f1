package dsp

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := Variance(x); got != 4 {
		t.Errorf("variance = %v, want 4", got)
	}
	if got := StdDev(x); got != 2 {
		t.Errorf("std = %v, want 2", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || rms(nil) != 0 ||
		Energy(nil) != 0 || MeanAbs(nil) != 0 {
		t.Error("empty-slice stats should all be 0")
	}
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Error("empty MinMax should be (0,0)")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if EmpiricalCDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestRMSAndEnergy(t *testing.T) {
	x := []float64{3, -4}
	want := math.Sqrt(12.5)
	if got := rms(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("rms = %v, want %v", got, want)
	}
	if got := Energy(x); math.Abs(got-12.5) > 1e-12 {
		t.Errorf("energy = %v, want 12.5", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 4, 1, 5, -9})
	if min != -9 || max != 5 {
		t.Errorf("minmax = (%v, %v), want (-9, 5)", min, max)
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{-5, 15},
		{105, 50},
	}
	for _, tt := range tests {
		if got := Percentile(x, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Input must not be reordered.
	if x[0] != 15 || x[4] != 50 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestEmpiricalCDF(t *testing.T) {
	cdf := EmpiricalCDF([]float64{3, 1, 2})
	if len(cdf) != 3 {
		t.Fatalf("len = %d", len(cdf))
	}
	wantVals := []float64{1, 2, 3}
	wantPs := []float64{1.0 / 3, 2.0 / 3, 1}
	for i := range cdf {
		if cdf[i].Value != wantVals[i] || math.Abs(cdf[i].P-wantPs[i]) > 1e-12 {
			t.Errorf("cdf[%d] = %+v", i, cdf[i])
		}
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		var x []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(x, p1) <= Percentile(x, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmpiricalCDFSortedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var x []float64
		for _, v := range raw {
			if !math.IsNaN(v) {
				x = append(x, v)
			}
		}
		cdf := EmpiricalCDF(x)
		if len(cdf) != len(x) {
			return false
		}
		return sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].Value < cdf[j].Value })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// rms returns the root-mean-square of x, or 0 for an empty slice.
func rms(x []float64) float64 { return math.Sqrt(Energy(x)) }
