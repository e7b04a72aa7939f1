// Package dsp implements the signal-processing primitives PTrack builds on:
// low-pass filters, peak and zero-crossing detection, auto/cross
// correlation, mean-removal double integration (after MoLe, MobiCom'15),
// summary statistics and frequency estimation.
//
// All routines operate on plain []float64 sample slices. Unless stated
// otherwise they do not mutate their inputs and return freshly allocated
// output (slices and maps are copied at API boundaries).
package dsp

import (
	"fmt"
	"math"
)

// LowPassSinglePole applies a first-order IIR low-pass filter
// y[i] = y[i-1] + alpha*(x[i]-y[i-1]) with alpha derived from the cutoff
// frequency (Hz) and the sample rate (Hz). It is the classic smoothing
// filter used by pedometer front ends. It returns a new slice.
func LowPassSinglePole(x []float64, cutoffHz, sampleRateHz float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	alpha := singlePoleAlpha(cutoffHz, sampleRateHz)
	out := make([]float64, len(x))
	out[0] = x[0]
	for i := 1; i < len(x); i++ {
		out[i] = out[i-1] + alpha*(x[i]-out[i-1])
	}
	return out
}

func singlePoleAlpha(cutoffHz, sampleRateHz float64) float64 {
	if cutoffHz <= 0 || sampleRateHz <= 0 {
		return 1 // pass-through
	}
	dt := 1 / sampleRateHz
	rc := 1 / (2 * math.Pi * cutoffHz)
	return dt / (rc + dt)
}

// Biquad is a second-order IIR filter section (direct form I). The zero
// value is a pass-through for b0=0; construct with NewLowPassBiquad.
type Biquad struct {
	b0, b1, b2 float64
	a1, a2     float64
	x1, x2     float64
	y1, y2     float64
}

// NewLowPassBiquad builds a Butterworth (Q = 1/sqrt(2)) second-order
// low-pass biquad with the given cutoff. It returns an error when the
// cutoff is not in (0, sampleRate/2).
func NewLowPassBiquad(cutoffHz, sampleRateHz float64) (*Biquad, error) {
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("dsp: sample rate must be positive, got %v", sampleRateHz)
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("dsp: cutoff %v Hz outside (0, %v) Hz", cutoffHz, sampleRateHz/2)
	}
	const q = math.Sqrt2 / 2
	w0 := 2 * math.Pi * cutoffHz / sampleRateHz
	cosW0, sinW0 := math.Cos(w0), math.Sin(w0)
	alpha := sinW0 / (2 * q)

	a0 := 1 + alpha
	f := &Biquad{
		b0: (1 - cosW0) / 2 / a0,
		b1: (1 - cosW0) / a0,
		b2: (1 - cosW0) / 2 / a0,
		a1: -2 * cosW0 / a0,
		a2: (1 - alpha) / a0,
	}
	return f, nil
}

// Process filters a single sample, advancing the filter state.
func (f *Biquad) Process(x float64) float64 {
	y := f.b0*x + f.b1*f.x1 + f.b2*f.x2 - f.a1*f.y1 - f.a2*f.y2
	f.x2, f.x1 = f.x1, x
	f.y2, f.y1 = f.y1, y
	return y
}

// ProcessBlockTo filters x into dst, advancing the filter state across
// the block exactly as len(x) Process calls would — the arithmetic is the
// same expression evaluated in the same order, so results are bitwise
// identical — but carries the recursion state in registers instead of
// re-loading and re-storing the struct fields on every sample. dst is
// grown as needed and returned; it may alias x. This is the fused block
// kernel the block-oriented push path uses for its forward smoothing pass.
func (f *Biquad) ProcessBlockTo(dst, x []float64) []float64 {
	if len(x) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	b0, b1, b2, a1, a2 := f.b0, f.b1, f.b2, f.a1, f.a2
	x1, x2, y1, y2 := f.x1, f.x2, f.y1, f.y2
	for i, v := range x {
		y := b0*v + b1*x1 + b2*x2 - a1*y1 - a2*y2
		x2, x1 = x1, v
		y2, y1 = y1, y
		dst[i] = y
	}
	f.x1, f.x2, f.y1, f.y2 = x1, x2, y1, y2
	return dst
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.x1, f.x2, f.y1, f.y2 = 0, 0, 0, 0 }

// State returns the recursion state (the two most recent inputs and
// outputs) for snapshotting a mid-stream filter. Coefficients are not
// part of the state: they are a pure function of the constructor
// parameters.
func (f *Biquad) State() (x1, x2, y1, y2 float64) { return f.x1, f.x2, f.y1, f.y2 }

// SetState restores recursion state captured by State. The filter then
// continues bit-identically to the one the state was taken from.
func (f *Biquad) SetState(x1, x2, y1, y2 float64) { f.x1, f.x2, f.y1, f.y2 = x1, x2, y1, y2 }

// Seed sets the filter state to the steady-state response to the constant
// input v — the priming Apply uses to suppress start-up transients. A
// unity-DC-gain low-pass settled on v outputs v, so all four state
// variables are v.
func (f *Biquad) Seed(v float64) { f.x1, f.x2, f.y1, f.y2 = v, v, v, v }

// SettleLen returns how many samples it takes the filter's transient
// response to decay by the factor tol (e.g. 1e-24): past that many
// samples, two runs of the recursion that started from different states
// agree to better than tol relative. Streaming zero-phase filtering uses
// this to bound how far an anti-causal (backward) pass must extend past
// the region whose values it needs exact. It returns 0 for an unstable or
// degenerate filter (no useful bound).
func (f *Biquad) SettleLen(tol float64) int {
	// The transient decays like r^n with r the largest pole magnitude of
	// z² + a1·z + a2.
	var r float64
	if d := f.a1*f.a1 - 4*f.a2; d < 0 {
		r = math.Sqrt(f.a2) // complex-conjugate pair: |p|² = a2
	} else {
		s := math.Sqrt(d)
		r = math.Max(math.Abs(-f.a1+s), math.Abs(-f.a1-s)) / 2
	}
	if !(r > 0) || r >= 1 || !(tol > 0) || tol >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(tol) / math.Log(r)))
}

// Apply filters a whole slice, returning a new slice. The filter state is
// reset first, and primed with the first sample to suppress the start-up
// transient on signals with a non-zero baseline.
func (f *Biquad) Apply(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	f.Seed(x[0])
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

// ApplyTo is Apply writing into dst, which is grown as needed and
// returned. dst may alias x (in-place filtering is safe: each output
// sample depends only on the current input and the filter state). It
// reuses dst's backing array when capacity allows, so hot loops can
// filter without allocating.
func (f *Biquad) ApplyTo(dst, x []float64) []float64 {
	if len(x) == 0 {
		return dst[:0]
	}
	f.Seed(x[0])
	return f.ProcessBlockTo(dst, x)
}

// ApplyBackwardTo runs the filter anti-causally over x — processing the
// samples from the last to the first, primed with the final sample — and
// writes the response into dst aligned with x (dst[i] is the backward
// response at x[i]). dst is grown as needed and returned; it may alias x.
//
// This is the backward half of FiltFilt restricted to a slice: because a
// whole-series backward pass is seeded at the final sample and recurses
// toward the front, running it over only the suffix x[k:] executes the
// exact same operation sequence the full pass would, so the suffix values
// are bitwise identical. Streaming zero-phase filters exploit this to
// recompute just the undecided tail of a growing series.
func (f *Biquad) ApplyBackwardTo(dst, x []float64) []float64 {
	if len(x) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	f.Seed(x[len(x)-1])
	// Same recursion as Process sample by sample, with the state carried
	// in registers across the pass (bitwise-identical arithmetic; the
	// settle-bounded tail rewrite runs this every peak scan, so the
	// state-field traffic was a measurable share of the tracker's cost).
	b0, b1, b2, a1, a2 := f.b0, f.b1, f.b2, f.a1, f.a2
	x1, x2, y1, y2 := f.x1, f.x2, f.y1, f.y2
	for i := len(x) - 1; i >= 0; i-- {
		v := x[i]
		y := b0*v + b1*x1 + b2*x2 - a1*y1 - a2*y2
		x2, x1 = x1, v
		y2, y1 = y1, y
		dst[i] = y
	}
	f.x1, f.x2, f.y1, f.y2 = x1, x2, y1, y2
	return dst
}

// LowPassButterworth is a convenience wrapper: it builds a Butterworth
// biquad and applies it forward over x. Invalid parameters degrade to a
// pass-through copy, which is the safe behaviour for a smoothing stage.
func LowPassButterworth(x []float64, cutoffHz, sampleRateHz float64) []float64 {
	f, err := NewLowPassBiquad(cutoffHz, sampleRateHz)
	if err != nil {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	return f.Apply(x)
}

// FiltFilt applies the Butterworth low-pass forward and then backward,
// cancelling the phase delay (zero-phase filtering). PTrack's critical-point
// timing analysis needs phase-preserving smoothing, so this is the filter
// used ahead of offset computation.
func FiltFilt(x []float64, cutoffHz, sampleRateHz float64) []float64 {
	fwd := LowPassButterworth(x, cutoffHz, sampleRateHz)
	Reverse(fwd)
	bwd := LowPassButterworth(fwd, cutoffHz, sampleRateHz)
	Reverse(bwd)
	return bwd
}

// FiltFiltTo is FiltFilt writing into dst using a caller-owned biquad,
// for hot loops that smooth many windows: dst's backing array is reused
// when capacity allows and the call performs no allocations once dst has
// grown to the working size. A nil biquad degrades to a pass-through
// copy, mirroring LowPassButterworth's invalid-parameter behaviour.
func FiltFiltTo(dst, x []float64, f *Biquad) []float64 {
	if f == nil {
		if cap(dst) < len(x) {
			dst = make([]float64, len(x))
		}
		dst = dst[:len(x)]
		copy(dst, x)
		return dst
	}
	dst = f.ApplyTo(dst, x) // forward
	Reverse(dst)
	dst = f.ApplyTo(dst, dst) // backward, in place
	Reverse(dst)
	return dst
}

// Reverse reverses x in place.
func Reverse(x []float64) {
	for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
		x[i], x[j] = x[j], x[i]
	}
}

// Detrend removes the least-squares straight line from x, returning a new
// slice. Slices shorter than 2 are returned as copies.
func Detrend(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) < 2 {
		copy(out, x)
		return out
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i, v := range x {
		fi := float64(i)
		sx += fi
		sy += v
		sxx += fi * fi
		sxy += fi * v
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		copy(out, x)
		return out
	}
	b := (n*sxy - sx*sy) / denom
	a := (sy - b*sx) / n
	for i, v := range x {
		out[i] = v - (a + b*float64(i))
	}
	return out
}

// RemoveMean subtracts the mean of x, returning a new slice.
func RemoveMean(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	m := Mean(x)
	for i, v := range x {
		out[i] = v - m
	}
	return out
}
