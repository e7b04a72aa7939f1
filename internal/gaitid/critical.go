// Package gaitid implements PTrack's gait-type identification (§III-B1):
// the critical-point offset metric of Eq. (1) that separates walking from
// rigid interference, the half-cycle auto-correlation and quarter-period
// phase tests that recover "stepping", and the Fig. 4 state machine that
// turns per-cycle classifications into step counts.
package gaitid

import (
	"math"
	"sort"

	"ptrack/internal/dsp"
)

// cpScratch holds the recyclable buffers behind the critical-point
// pipeline. The per-cycle classification path (stream.Tracker →
// Identifier.ClassifyWindow → offset metric) runs this machinery on every
// gait cycle, and the throwaway peak finders and merge slices the
// package-level helpers allocate were the dominant allocation source of
// the whole event path — linear in trace duration. A long-lived scratch
// makes the pipeline allocation-free at steady state; outputs are
// identical (same candidate multisets through the same sorts). Not safe
// for concurrent use.
type cpScratch struct {
	pf   dsp.PeakFinder
	neg  []float64
	tp   []int // turning points (anchor signal)
	cp   []int // critical points (candidate signal)
	anch []int
	spac []float64
}

// turningPointsInto appends the indices of local extrema whose prominence
// (computed on x or its negation) reaches minProm into dst[:0], in
// ascending order.
func (sc *cpScratch) turningPointsInto(dst []int, x []float64, minProm float64) []int {
	dst = dst[:0]
	// The finder's return slice is invalidated by its next Find, so the
	// maxima are copied out before the minima scan.
	dst = append(dst, sc.pf.Find(x, dsp.PeakOptions{MinProminence: minProm})...)
	if cap(sc.neg) < len(x) {
		sc.neg = make([]float64, len(x))
	}
	neg := sc.neg[:len(x)]
	for i, v := range x {
		neg[i] = -v
	}
	dst = append(dst, sc.pf.Find(neg, dsp.PeakOptions{MinProminence: minProm})...)
	sort.Ints(dst)
	return dst
}

// criticalPointsInto appends the merged, sorted, deduplicated turning
// points and zero crossings of x — the full critical-point set of the
// paper ("turning or crossing points") — into dst[:0].
func (sc *cpScratch) criticalPointsInto(dst []int, x []float64, minProm float64) []int {
	dst = sc.turningPointsInto(dst, x, minProm)
	dst = dsp.AppendZeroCrossings(dst, x)
	sort.Ints(dst)
	// Deduplicate: a plateau touching zero can appear in both lists.
	dedup := dst[:0]
	for i, v := range dst {
		if i == 0 || v != dst[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// turningPoints returns the indices of local extrema whose prominence
// (computed on x or its negation) reaches minProm, in ascending order.
func turningPoints(x []float64, minProm float64) []int {
	var sc cpScratch
	return sc.turningPointsInto(nil, x, minProm)
}

// criticalPoints returns the merged, sorted turning points and zero
// crossings of x — the full critical-point set of the paper ("turning or
// crossing points").
func criticalPoints(x []float64, minProm float64) []int {
	var sc cpScratch
	return sc.criticalPointsInto(nil, x, minProm)
}

// signalRange returns max(x) - min(x).
func signalRange(x []float64) float64 {
	min, max := dsp.MinMax(x)
	return max - min
}

// nearestDistance returns the distance from v to the closest value in the
// sorted slice cands. cands must be non-empty.
func nearestDistance(v int, cands []int) int {
	i := sort.SearchInts(cands, v)
	best := math.MaxInt32
	if i < len(cands) {
		best = cands[i] - v
	}
	if i > 0 {
		if d := v - cands[i-1]; d < best {
			best = d
		}
	}
	return best
}

// OffsetMetricMargin computes the paper's Eq. (1) synchronisation offset
// for one projected gait-cycle candidate, aggregated (mean) over the
// vertical direction's turning points:
//
//	δ(nv) = w(nv) · |nv − c(nv)| / n
//
// where c(nv) is the closest critical point (turning or zero crossing) on
// the anterior direction, n the cycle length in samples, and w(nv) the
// sample count between nv and the previous vertical turning point,
// normalised by the mean such spacing (so δ's scale is independent of how
// many critical points a cycle has) times the calibration constant
// weightScale. The paper specifies a "normalized sample number" without
// the base; weightScale pins our normalization so the paper's empirical
// threshold δ = 0.0325 falls inside the separation gap measured on the
// synthetic substrate (interference ≤ ~0.029, walking ≥ ~0.036 after
// scaling).
//
// Anchors are the vertical *turning* points: both of the paper's
// synchronisation patterns predict an anterior critical point at each
// vertical turning point of a rigid motion (turning↔turning, or
// turning↔zero of the perpendicular axis), whereas vertical zero
// crossings of a rigid motion carry no such guarantee.
//
// The slices carry `margin` context samples on each side of the
// gait-cycle core (0 for a bare cycle). Anchors are restricted to the
// core, but matching candidates may lie in the margins — without
// context, a vertical turning point near the cycle boundary would be
// matched against a far-away candidate and a perfectly rigid motion
// would read as desynchronised. The Eq. (1) normaliser n is the core
// length.
//
// Extrema less prominent than relProminence of each signal's range are
// ignored. ok is false when either direction yields no critical points.
func OffsetMetricMargin(vertical, anterior []float64, margin int) (offset float64, ok bool) {
	var sc cpScratch
	return sc.offsetMetricMargin(vertical, anterior, margin)
}

// offsetMetricMargin is OffsetMetricMargin on recycled scratch; see
// cpScratch.
func (sc *cpScratch) offsetMetricMargin(vertical, anterior []float64, margin int) (offset float64, ok bool) {
	total := len(vertical)
	if total == 0 || len(anterior) != total {
		return 0, false
	}
	if margin < 0 || 2*margin >= total {
		margin = 0
	}
	n := total - 2*margin
	sc.tp = sc.turningPointsInto(sc.tp, vertical, relProminence*signalRange(vertical))
	sc.cp = sc.criticalPointsInto(sc.cp, anterior, relProminence*signalRange(anterior))
	anchorsAll, cands := sc.tp, sc.cp
	anchors := sc.anch[:0]
	for _, a := range anchorsAll {
		if a >= margin && a < margin+n {
			anchors = append(anchors, a)
		}
	}
	sc.anch = anchors
	if len(anchors) == 0 || len(cands) == 0 {
		return 0, false
	}

	// Spacings to the previous vertical turning point (which may sit in
	// the leading margin; the window start for the very first), normalised
	// to mean 1.
	if cap(sc.spac) < len(anchors) {
		sc.spac = make([]float64, len(anchors))
	}
	spacings := sc.spac[:len(anchors)]
	var sumSpacing float64
	for i, a := range anchors {
		prev := 0
		j := sort.SearchInts(anchorsAll, a)
		if j > 0 {
			prev = anchorsAll[j-1]
		}
		spacings[i] = float64(a - prev)
		sumSpacing += spacings[i]
	}
	mean := sumSpacing / float64(len(anchors))
	if mean == 0 {
		return 0, false
	}

	var sum float64
	for i, a := range anchors {
		w := weightScale * spacings[i] / mean
		off := float64(nearestDistance(a, cands)) / float64(n)
		sum += w * off
	}
	return sum / float64(len(anchors)), true
}

// weightScale calibrates Eq. (1)'s weight normalization to the paper's
// threshold scale; see OffsetMetricMargin.
const weightScale = 0.70
