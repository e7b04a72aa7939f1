package dsp

import "math"

// AutoCorrAt returns the normalised (Pearson) auto-correlation of x at the
// given lag: corr(x[0:n-lag], x[lag:n]) with the mean removed. The result
// is in [-1, 1]. It returns 0 when the overlap is shorter than 2 samples or
// either segment has zero variance.
func AutoCorrAt(x []float64, lag int) float64 {
	if lag < 0 {
		lag = -lag
	}
	n := len(x) - lag
	if n < 2 {
		return 0
	}
	a := x[:n]
	b := x[lag : lag+n]
	return Pearson(a, b)
}

// Pearson returns the Pearson correlation coefficient of equal-length a and
// b, or 0 when undefined (length < 2, length mismatch, or zero variance).
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var saa, sbb, sab float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		saa += da * da
		sbb += db * db
		sab += da * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// CrossCorrBestLag searches lags in [-maxLag, maxLag] and returns the lag
// that maximises the normalised cross-correlation between a and b, together
// with that correlation value. Positive lag means b is delayed relative to
// a. It returns (0, 0) when no valid lag exists.
//
// The sweep runs on a LagCorrelator (prefix-sum moments, one pass per lag
// for the dot product). Hot paths that sweep lags repeatedly should hold
// their own LagCorrelator to also amortise its scratch.
func CrossCorrBestLag(a, b []float64, maxLag int) (bestLag int, bestCorr float64) {
	var k LagCorrelator
	k.Reset(a, b)
	return k.BestLag(maxLag)
}

// crossCorrAt computes the normalised correlation of a[i] with b[i+lag]
// over their overlap. It is the naive per-lag evaluation the rollstat
// kernels replace; it stays as the reference implementation their
// equivalence tests compare against.
func crossCorrAt(a, b []float64, lag int) (float64, bool) {
	var as, bs []float64
	if lag >= 0 {
		if lag >= len(b) {
			return 0, false
		}
		bs = b[lag:]
		as = a
	} else {
		if -lag >= len(a) {
			return 0, false
		}
		as = a[-lag:]
		bs = b
	}
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	if n < 2 {
		return 0, false
	}
	return Pearson(as[:n], bs[:n]), true
}

// DominantLag estimates the fundamental period of x in samples by locating
// the first prominent peak of the auto-correlation between minLag and
// maxLag. It returns 0 when no peak exceeds threshold. The lag sweep runs
// on a LagCorrelator; callers that also need the correlation value at the
// winning lag should use a LagCorrelator directly.
func DominantLag(x []float64, minLag, maxLag int, threshold float64) int {
	var k LagCorrelator
	k.ResetAuto(x)
	return k.DominantLag(minLag, maxLag, threshold)
}
