// Package selftrain implements PTrack's user-profile self-training
// (§III-C2): estimating the arm length m̂ and leg length l̂ without the
// user measuring anything, plus the per-user calibration factor k of
// Eq. (2) that the paper trains "during the initialization phase".
//
// The paper omits the technical details of the two search steps, so this
// is our reconstruction, documented in DESIGN.md:
//
//   - Step 1 (m̂): the arm length is the only unknown in the Eqs. (3)-(5)
//     bounce solve. During *stepping* intervals (arm still) the bounce is
//     measured directly, with no arm model at all; during *walking* the
//     solved bounce decreases monotonically in the assumed arm length.
//     m̂ is therefore the arm length that makes the walking-derived bounce
//     agree with the directly measured stepping bounce of the same user —
//     a consistency condition PTrack can evaluate from its own outputs as
//     both gaits occur naturally in daily data.
//   - Step 2 (l̂): leg and arm lengths are both strongly proportional to
//     body height; l̂ = ρ·m̂ with the anthropometric ratio ρ ≈ 1.45
//     (trochanter height ≈ 0.50·H, shoulder-to-wrist ≈ 0.34·H).
//   - k: one short recording with a known distance (the paper's
//     initialization phase) fixes the multiplicative calibration, for the
//     manual and the self-trained profile alike.
package selftrain

import (
	"fmt"
	"sort"

	"ptrack/internal/gaitid"
	"ptrack/internal/project"
	"ptrack/internal/segment"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// The searches' fixed bounds and priors.
const (
	minArm      = 0.40 // arm search lower bound, m
	maxArm      = 0.95 // arm search upper bound, m
	legArmRatio = 1.45 // anthropometric l/m ratio
	initialK    = 2.35 // population prior for k
)

// Diagnostics reports what the trainer saw.
type Diagnostics struct {
	WalkSteps     int     // walking steps contributing (h1, h2, d) triples
	StepSteps     int     // stepping steps contributing direct bounces
	MedianWalkB   float64 // median walking bounce at the chosen arm length
	MedianStepB   float64 // median directly measured bounce
	ArmConverged  bool    // false when the consistency search had no anchor
	KFromDistance bool    // true when k was calibrated against a known distance
}

// triple is one walking step's raw geometry measurement.
type triple struct{ h1, h2, d float64 }

// Train estimates a stride.Config from a calibration trace that contains
// natural walking and (ideally) some stepping. knownDistance, when
// positive, is the true distance covered during the trace and calibrates
// k; pass 0 to keep the population prior.
func Train(tr *trace.Trace, knownDistance float64) (stride.Config, Diagnostics, error) {
	var diag Diagnostics
	if tr == nil || tr.SampleRate <= 0 || len(tr.Samples) == 0 {
		return stride.Config{}, diag, fmt.Errorf("selftrain: non-empty trace required")
	}

	triples, stepBounces, err := collect(tr)
	if err != nil {
		return stride.Config{}, diag, err
	}
	diag.WalkSteps = len(triples)
	diag.StepSteps = len(stepBounces)
	if len(triples) == 0 {
		return stride.Config{}, diag, fmt.Errorf("selftrain: no walking steps found in calibration trace")
	}

	arm := (minArm + maxArm) / 2
	if len(stepBounces) >= 4 {
		target := median(stepBounces)
		arm = searchArm(triples, target)
		diag.ArmConverged = true
		diag.MedianStepB = target
	}
	diag.MedianWalkB = medianWalkBounce(triples, arm)

	cfg := stride.Config{
		ArmLength: arm,
		LegLength: legArmRatio * arm,
		K:         initialK,
	}

	if knownDistance > 0 {
		k, ok := calibrateK(tr, cfg, knownDistance)
		if ok {
			cfg.K = k
			diag.KFromDistance = true
		}
	}
	return cfg, diag, nil
}

// CalibrateK refits only the Eq. (2) calibration factor of an existing
// profile against a recording with a known distance — the initialization
// step the paper applies to manually measured profiles too.
func CalibrateK(tr *trace.Trace, cfg stride.Config, knownDistance float64) (float64, error) {
	if knownDistance <= 0 {
		return 0, fmt.Errorf("selftrain: known distance must be positive, got %v", knownDistance)
	}
	k, ok := calibrateK(tr, cfg, knownDistance)
	if !ok {
		return 0, fmt.Errorf("selftrain: calibration trace yielded no distance estimate")
	}
	return k, nil
}

// collect runs the identification pipeline and harvests per-step
// measurements: (h1,h2,d) triples from walking cycles, direct bounces
// from stepping cycles.
func collect(tr *trace.Trace) ([]triple, []float64, error) {
	// The placeholder profile only routes the estimator; h1/h2/d and the
	// stepping bounce do not depend on it.
	est, err := stride.New(stride.Config{ArmLength: 0.65, LegLength: 0.95, K: initialK})
	if err != nil {
		return nil, nil, fmt.Errorf("selftrain: %w", err)
	}
	var triples []triple
	var stepBounces []float64
	eachCycleSteps(tr, est, func(label gaitid.Label, found []stride.Step) {
		for _, s := range found {
			switch {
			case label == gaitid.LabelWalking && s.D > 0:
				triples = append(triples, triple{h1: s.H1, h2: s.H2, d: s.D})
			case label == gaitid.LabelStepping && s.Bounce > 0:
				stepBounces = append(stepBounces, s.Bounce)
			}
		}
	})
	return triples, stepBounces, nil
}

// eachCycleSteps segments tr, projects every cycle whose classification
// margin fits inside the trace, classifies it, and passes each walking or
// stepping cycle's label and the steps est finds in it to visit, in
// trace order. Cycles at the trace edges and failed projections are
// skipped; interference cycles are not visited.
func eachCycleSteps(tr *trace.Trace, est *stride.Estimator, visit func(gaitid.Label, []stride.Step)) {
	seg := segment.Segment(tr, segment.Config{})
	series := project.Decompose(tr)
	id := gaitid.NewIdentifier(gaitid.Config{}, tr.SampleRate)
	for _, cyc := range seg.Cycles {
		margin := int(gaitid.MarginFraction * float64(cyc.Len()))
		start, end := cyc.Start-margin, cyc.End+margin
		if start < 0 || end > len(tr.Samples) {
			continue
		}
		w := series.ProjectWindow(start, end)
		if !w.OK {
			continue
		}
		switch label := id.ClassifyWindow(w.Vertical, w.Anterior, margin).Label; label {
		case gaitid.LabelWalking:
			visit(label, est.EstimateWalking(w.Vertical, w.Anterior, margin, tr.SampleRate))
		case gaitid.LabelStepping:
			visit(label, est.EstimateStepping(w.Vertical, margin, tr.SampleRate))
		}
	}
}

// searchArm finds the arm length whose median walking bounce matches the
// target. The walking bounce decreases monotonically in the assumed arm
// length (a longer arm explains more of the anterior travel d, leaving
// less for the bounce), so a bisection suffices.
func searchArm(triples []triple, target float64) float64 {
	lo, hi := minArm, maxArm
	bLo := medianWalkBounce(triples, lo) // largest bounce
	bHi := medianWalkBounce(triples, hi) // smallest bounce
	if target >= bLo {
		return lo
	}
	if target <= bHi {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if medianWalkBounce(triples, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// medianWalkBounce solves every triple at the candidate arm length and
// returns the median bounce.
func medianWalkBounce(triples []triple, arm float64) float64 {
	bs := make([]float64, 0, len(triples))
	for _, t := range triples {
		b, _ := stride.SolveBounce(t.h1, t.h2, t.d, arm)
		bs = append(bs, b)
	}
	return median(bs)
}

// calibrateK estimates the distance with the candidate profile and scales
// k so the estimate matches the known distance (stride is linear in k).
func calibrateK(tr *trace.Trace, cfg stride.Config, knownDistance float64) (float64, bool) {
	est, err := stride.New(cfg)
	if err != nil {
		return 0, false
	}
	var distance float64
	var steps int
	eachCycleSteps(tr, est, func(_ gaitid.Label, found []stride.Step) {
		for _, s := range found {
			distance += s.Stride
			steps++
		}
	})
	if distance <= 0 || steps == 0 {
		return 0, false
	}
	return cfg.K * knownDistance / distance, true
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
