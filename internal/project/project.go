// Package project implements PTrack's acceleration projection (§III-B2):
// decomposing raw device-frame accelerometer samples into vertical linear
// acceleration (via the platform gravity estimate, [25]) and anterior
// acceleration (via least-squares fitting of the dominant horizontal
// direction — the back-and-forth arm/body motion spreads energy along the
// walking direction).
package project

import (
	"ptrack/internal/dsp"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// Series holds the full-trace projection: per-sample vertical linear
// acceleration plus the two horizontal components in the gravity-referenced
// basis. Anterior extraction happens per window with ProjectWindow.
type Series struct {
	SampleRate float64
	Vertical   []float64
	H1, H2     []float64

	fit AxisFitter // anterior fit with sign memory across windows
}

// Reset clears the per-trace state (sample rate, series, axis memory)
// while keeping the backing arrays, so a Series can be recycled across
// traces — e.g. through a sync.Pool — without re-allocating its buffers.
func (s *Series) Reset() {
	s.SampleRate = 0
	s.Vertical = s.Vertical[:0]
	s.H1 = s.H1[:0]
	s.H2 = s.H2[:0]
	s.fit.Last = vecmath.Vec3{}
}

// grow resizes the three channel buffers to n samples, reusing capacity.
func (s *Series) grow(n int) {
	if cap(s.Vertical) < n {
		s.Vertical = make([]float64, n)
		s.H1 = make([]float64, n)
		s.H2 = make([]float64, n)
		return
	}
	s.Vertical = s.Vertical[:n]
	s.H1 = s.H1[:n]
	s.H2 = s.H2[:n]
}

// Decompose runs the gravity estimator over the whole trace and returns
// the per-sample decomposition. The gravity low-pass is pre-settled on the
// first sample so short traces do not pay a start-up transient.
func Decompose(tr *trace.Trace) *Series {
	s := &Series{}
	DecomposeInto(s, tr)
	return s
}

// DecomposeInto is Decompose writing into an existing Series, recycling
// its buffers. The Series is Reset first, so any per-trace state from a
// previous use is discarded.
func DecomposeInto(s *Series, tr *trace.Trace) {
	s.Reset()
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return
	}
	s.SampleRate = tr.SampleRate
	n := len(tr.Samples)
	s.grow(n)

	// The gravity cutoff must sit far below the gait band: the low-pass
	// leaks a phase-lagged copy of the motion into the gravity estimate
	// proportional to cutoff/f, and phase-lagged cross-axis leakage would
	// desynchronise the critical points of perfectly rigid motions. A
	// static tilt error, by contrast, only mixes the axes synchronously
	// and is harmless to the offset metric.
	const gravityCutoffHz = 0.04
	p := imu.NewProjector(gravityCutoffHz, tr.SampleRate)
	// Prime the gravity filter on the mean over the first seconds: motion
	// acceleration averages out over whole movement cycles, so the mean is
	// an unbiased gravity estimate, whereas priming on a single sample
	// would inject that sample's full motion acceleration and poison the
	// first few seconds of vertical extraction.
	primeN := int(3 * tr.SampleRate)
	if primeN > n {
		primeN = n
	}
	var primeSum vecmath.Vec3
	for _, smp := range tr.Samples[:primeN] {
		primeSum = primeSum.Add(smp.Accel)
	}
	p.Prime(primeSum.Scale(1 / float64(primeN)))
	for i, smp := range tr.Samples {
		proj := p.Project(smp.Accel)
		s.Vertical[i] = proj.Vertical
		s.H1[i] = proj.H1
		s.H2[i] = proj.H2
	}
}

// DecomposeFused is Decompose with the vertical channel extracted via
// gyro+accelerometer complementary attitude fusion instead of the
// low-pass gravity estimate. The fused attitude follows fast wrist
// re-orientation (e.g. the watch rotating with the swinging forearm),
// which a low-pass cannot track; use it when traces carry a gyroscope
// channel and the mount is not quasi-static.
func DecomposeFused(tr *trace.Trace) *Series {
	s := &Series{}
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return s
	}
	s.SampleRate = tr.SampleRate
	n := len(tr.Samples)
	s.Vertical = make([]float64, n)
	s.H1 = make([]float64, n)
	s.H2 = make([]float64, n)

	f := imu.NewComplementaryFilter(1.0, tr.SampleRate)
	dt := 1 / tr.SampleRate
	for i, smp := range tr.Samples {
		att := f.Update(smp.Gyro, smp.Accel, dt)
		world := att.Rotate(smp.Accel)
		s.Vertical[i] = world.Z - imu.StandardGravity
		// The fused attitude's yaw is arbitrary (gravity observes tilt
		// only), so the horizontal pair is a consistent but unoriented
		// basis — exactly what the PCA anterior fit needs.
		s.H1[i] = world.X
		s.H2[i] = world.Y
	}
	return s
}

// Window is a projected gait-cycle candidate: the vertical and anterior
// acceleration series over one window.
type Window struct {
	Vertical []float64
	Anterior []float64
	Axis     vecmath.Vec3 // horizontal unit axis (in the H1/H2 basis) used for Anterior
	OK       bool         // false when no anterior axis could be fitted
}

// ProjectWindow extracts the [start, end) window and fits the anterior
// axis to its horizontal scatter, sign-stabilised against the previous
// window's axis (see AxisFitter).
func (s *Series) ProjectWindow(start, end int) Window {
	if start < 0 {
		start = 0
	}
	if end > len(s.Vertical) {
		end = len(s.Vertical)
	}
	if start >= end {
		return Window{}
	}
	n := end - start
	w := Window{
		Vertical: make([]float64, n),
		Anterior: make([]float64, n),
	}
	copy(w.Vertical, s.Vertical[start:end])
	// With no horizontal energy the anterior series stays zero; vertical
	// is still valid so the caller can decide what to do.
	_, w.Axis, w.OK = s.fit.Fit(w.Anterior, s.H1[start:end], s.H2[start:end])
	return w
}

// AxisFitter fits the anterior axis of successive windows: the principal
// direction of a window's horizontal (H1, H2) scatter, least-squares
// fitted, with its sign stabilised against the previous window's axis so
// consecutive cycles keep a consistent anterior polarity (the absolute
// sign is unobservable without a compass, and no downstream consumer
// needs it). The zero value is ready to use.
type AxisFitter struct {
	// Last is the previous fitted axis (zero before the first fit).
	Last vecmath.Vec3
	pts  []vecmath.Vec3 // point-cloud scratch, reused across windows
}

// Fit fits the axis over the window h1/h2 (equal lengths) and writes the
// anterior projection into dst, reusing its capacity; the projection is
// returned. ok is false — and dst untouched — when the scatter has no
// dominant direction.
func (f *AxisFitter) Fit(dst, h1, h2 []float64) (anterior []float64, axis vecmath.Vec3, ok bool) {
	n := len(h1)
	if cap(f.pts) < n {
		f.pts = make([]vecmath.Vec3, n)
	}
	pts := f.pts[:n]
	for i := range pts {
		pts[i] = vecmath.V3(h1[i], h2[i], 0)
	}
	axis, ok = vecmath.PrincipalAxis2D(pts)
	if !ok {
		return dst, vecmath.Vec3{}, false
	}
	if f.Last.NormSq() > 0 && axis.Dot(f.Last) < 0 {
		axis = axis.Neg()
	}
	f.Last = axis
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	anterior = dst[:n]
	for i, p := range pts {
		anterior[i] = p.Dot(axis)
	}
	return anterior, axis, true
}

// ScratchBytes reports the fitter's retained scratch capacity.
func (f *AxisFitter) ScratchBytes() int { return 24 * cap(f.pts) }

// Smooth returns copies of the window's series zero-phase low-passed at
// cutoffHz — the phase-preserving smoothing the critical-point analysis
// needs.
func (w Window) Smooth(cutoffHz, sampleRate float64) (vertical, anterior []float64) {
	return dsp.FiltFilt(w.Vertical, cutoffHz, sampleRate),
		dsp.FiltFilt(w.Anterior, cutoffHz, sampleRate)
}
