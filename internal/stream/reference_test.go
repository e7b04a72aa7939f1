package stream

// This file preserves the pre-incremental online tracker's front end
// verbatim, as the behavioural reference for the streaming front end: the
// whole-buffer zero-phase refilter and re-segmentation it performs on
// every scan are what the incremental tail/cursor implementation in
// stream.go must reproduce event for event (see equiv_test.go). Keep its
// front end in sync with nothing — its value is that it does NOT change
// with stream.go. The per-cycle decision is not what it checks, so it
// calls the same gaitid.Decider and event shaping as the tracker.

import (
	"math"

	"ptrack/internal/dsp"
	"ptrack/internal/gaitid"
	"ptrack/internal/imu"
	"ptrack/internal/segment"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// refTracker is the old online pipeline: O(buffer) refilter + peak
// re-detection per scan, allocating fresh intermediates throughout.
type refTracker struct {
	cfg  Config
	dec  gaitid.Decider
	grav *imu.Projector

	base     int
	absCount int
	mag      []float64
	vertical []float64
	h1, h2   []float64

	lastPeak     int
	lastCycleLen int
	sinceScan    int

	lastAxis vecmath.Vec3
}

func newRefTracker(cfg Config) (*refTracker, error) {
	cfg = cfg.withDefaults()
	t := &refTracker{
		cfg: cfg,
		dec: gaitid.Decider{
			ID:         gaitid.NewIdentifier(cfg.Identify, cfg.SampleRate),
			SampleRate: cfg.SampleRate,
		},
		grav:     imu.NewProjector(0.04, cfg.SampleRate),
		lastPeak: -1,
	}
	if cfg.AdaptiveDelta {
		t.dec.Adaptive = gaitid.NewAdaptiveThreshold(0)
	}
	if cfg.Profile != nil {
		est, err := stride.New(*cfg.Profile)
		if err != nil {
			return nil, err
		}
		t.dec.Est = est
	}
	return t, nil
}

func (t *refTracker) Steps() int { return t.dec.ID.Steps() }

func (t *refTracker) Push(s trace.Sample) []Event {
	proj := t.grav.Project(s.Accel)
	t.vertical = append(t.vertical, proj.Vertical)
	t.h1 = append(t.h1, proj.H1)
	t.h2 = append(t.h2, proj.H2)
	t.mag = append(t.mag, s.Accel.Norm()-imu.StandardGravity)
	t.absCount++

	t.sinceScan++
	if t.sinceScan < int(0.1*t.cfg.SampleRate) {
		return nil
	}
	t.sinceScan = 0
	events := t.drainWith(false)
	t.compact()
	return events
}

func (t *refTracker) Flush() []Event {
	return t.drainWith(true)
}

func (t *refTracker) drainWith(flush bool) []Event {
	var events []Event
	lp := t.cfg.Segment.LowPassCutoffHz
	if lp == 0 {
		lp = 5
	}

	for {
		if len(t.mag) < 8 {
			return events
		}
		smooth := dsp.FiltFilt(t.mag, lp, t.cfg.SampleRate)
		peaks := dsp.FindPeaks(smooth, dsp.PeakOptions{
			MinProminence: segment.MinPeakProminence,
			MinDistance:   int(math.Round(segment.MinPeakDistanceS * t.cfg.SampleRate)),
		})
		var cand []int
		for _, p := range peaks {
			abs := p + t.base
			if abs >= t.lastPeak {
				cand = append(cand, abs)
			}
		}
		if len(cand) < 3 {
			return events
		}
		p0, p1, p2 := cand[0], cand[1], cand[2]
		if !segment.PlausibleCycle(smooth, t.base, p0, p1, p2, t.cfg.SampleRate) {
			t.lastPeak = p1
			continue
		}
		cycLen := p2 - p0
		margin := int(gaitid.MarginFraction * float64(cycLen))
		have := t.base + len(t.mag)
		if p2+margin >= have {
			if !flush {
				return events
			}
			margin = have - 1 - p2
			if margin < 0 {
				margin = 0
			}
		}
		leadMargin := margin
		if p0-leadMargin < t.base {
			leadMargin = p0 - t.base
		}
		m := min(leadMargin, margin)
		ev := t.classifyCycle(p0, p2, m)
		events = append(events, ev...)
		t.lastPeak = p2
		t.lastCycleLen = cycLen
	}
}

func (t *refTracker) classifyCycle(startAbs, endAbs, margin int) []Event {
	lo := startAbs - margin - t.base
	hi := endAbs + margin - t.base
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.vertical) {
		hi = len(t.vertical)
	}
	vertical := append([]float64(nil), t.vertical[lo:hi]...)
	anterior, ok := t.anterior(lo, hi)
	d := t.dec.Decide(startAbs, endAbs, vertical, anterior, ok, margin)
	return appendDecision(nil, d, t.dec.ID.Steps())
}

func (t *refTracker) anterior(lo, hi int) ([]float64, bool) {
	pts := make([]vecmath.Vec3, hi-lo)
	for i := range pts {
		pts[i] = vecmath.V3(t.h1[lo+i], t.h2[lo+i], 0)
	}
	axis, ok := vecmath.PrincipalAxis2D(pts)
	if !ok {
		return nil, false
	}
	if t.lastAxis.NormSq() > 0 && axis.Dot(t.lastAxis) < 0 {
		axis = axis.Neg()
	}
	t.lastAxis = axis
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Dot(axis)
	}
	return out, true
}

func (t *refTracker) compact() {
	maxLen := int(t.cfg.BufferS * t.cfg.SampleRate)
	if len(t.mag) <= maxLen {
		return
	}
	drop := len(t.mag) - maxLen
	if t.lastPeak >= 0 {
		keepFrom := t.lastPeak - t.base - t.lastCycleLen
		if keepFrom < drop {
			drop = keepFrom
		}
	}
	if drop <= 0 {
		return
	}
	t.base += drop
	t.mag = t.mag[drop:]
	t.vertical = t.vertical[drop:]
	t.h1 = t.h1[drop:]
	t.h2 = t.h2[drop:]
}
