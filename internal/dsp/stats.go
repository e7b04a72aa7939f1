package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 when len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Energy returns the mean squared value of x (signal energy per sample).
func Energy(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s / float64(len(x))
}

// MinMax returns the minimum and maximum of x. It returns (0, 0) for an
// empty slice.
func MinMax(x []float64) (min, max float64) {
	if len(x) == 0 {
		return 0, 0
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation between order statistics. It returns 0 for an empty slice.
// x is not modified.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of x.
func Median(x []float64) float64 { return Percentile(x, 50) }

// MeanAbs returns the mean absolute value of x.
func MeanAbs(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s / float64(len(x))
}

// CDFPoint is one point of an empirical cumulative distribution function.
type CDFPoint struct {
	Value float64 // sample value
	P     float64 // cumulative probability in (0, 1]
}

// EmpiricalCDF returns the empirical CDF of x as sorted (value, probability)
// points, one per sample. x is not modified.
func EmpiricalCDF(x []float64) []CDFPoint {
	if len(x) == 0 {
		return nil
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	n := float64(len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / n}
	}
	return out
}
