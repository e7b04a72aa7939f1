// Package stride implements PTrack's stride estimator (§III-C): locating
// the three key moments of each step from the wrist signal — hand backmost
// (i), vertical (ii), foremost (iii) — measuring the device displacements
// h1, h2 (vertical) and d (anterior) with mean-removal double integration,
// solving the arm-geometry system of Eqs. (3)–(5) for the body bounce b,
// and converting bounce to stride with the inverted-pendulum model of
// Eq. (2).
package stride

import (
	"fmt"
	"math"

	"ptrack/internal/dsp"
)

// Config parameterises the estimator with the user profile (measured
// manually or self-trained) and the trained calibration factor.
type Config struct {
	ArmLength float64 // m of Eqs. (3)-(5), metres
	LegLength float64 // l of Eq. (2), metres
	K         float64 // Eq. (2) calibration factor, trained per user
}

const (
	// smoothCutoffHz low-passes (zero-phase) the projected series before
	// key-moment location.
	smoothCutoffHz = 4.5
	// minStepFraction and maxStepFraction bound a step's duration as a
	// fraction of the candidate cycle.
	minStepFraction = 0.3
	maxStepFraction = 0.7
)

// Validate reports whether the profile fields are usable. A usable
// field is positive AND finite — `<= 0` alone would wave NaN through
// (NaN fails every comparison) and let it poison every stride estimate
// downstream.
func (c Config) Validate() error {
	switch {
	case !posFinite(c.ArmLength):
		return fmt.Errorf("stride: arm length must be positive and finite, got %v", c.ArmLength)
	case !posFinite(c.LegLength):
		return fmt.Errorf("stride: leg length must be positive and finite, got %v", c.LegLength)
	case !posFinite(c.K):
		return fmt.Errorf("stride: calibration factor must be positive and finite, got %v", c.K)
	}
	return nil
}

func posFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// Step is one estimated step.
type Step struct {
	Stride float64 // estimated stride length, metres
	Bounce float64 // estimated body bounce, metres
	// Raw geometry measurements (diagnostics / self-training input).
	H1, H2, D float64
	Start     int // sample index (within the supplied window) of moment (i)
	Mid       int // moment (ii)
	End       int // moment (iii)
}

// Estimator estimates per-step strides from projected gait cycles.
// Construct with New. Not safe for concurrent use.
type Estimator struct {
	cfg Config
}

// New returns an Estimator. It returns an error when the profile is
// invalid.
func New(cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{cfg: cfg}, nil
}

// StrideFromBounce applies Eq. (2): s = k·sqrt(l² − (l−b)²). Bounces
// outside the model's domain are clamped to it.
func StrideFromBounce(bounce, leg, k float64) float64 {
	if bounce < 0 {
		bounce = 0
	}
	if bounce > leg {
		bounce = leg
	}
	d := leg - bounce
	return k * math.Sqrt(leg*leg-d*d)
}

// SolveBounce inverts Eqs. (3)–(5) numerically. Substituting r1 = h1 + b
// and r2 = h2 + b into Eq. (5) gives a scalar equation in the bounce b:
//
//	g(b) = sqrt(m² − (m−r1)²) + sqrt(m² − (m−r2)²) − d = 0
//
// Each square-root term is the horizontal half-chord of the arm circle at
// vertical drop r, which grows monotonically with r ∈ [0, m]; g is
// therefore strictly increasing in b and a bisection on the physical
// interval finds the unique root (the paper's closed form is omitted
// there; the bisection is equivalent to machine precision). It returns
// ok=false when the inputs admit no solution, with b clamped to the
// nearest feasible value.
func SolveBounce(h1, h2, d, armLength float64) (b float64, ok bool) {
	m := armLength
	if m <= 0 || d <= 0 {
		return 0, false
	}
	// r_i = h_i + b must lie in [0, m].
	lo := math.Max(0, math.Max(-h1, -h2))
	hi := math.Min(m-h1, m-h2)
	if hi <= lo {
		return 0, false
	}
	g := func(b float64) float64 {
		return chord(h1+b, m) + chord(h2+b, m) - d
	}
	gLo, gHi := g(lo), g(hi)
	switch {
	case gLo >= 0:
		// Even zero bounce overshoots d: the arm alone explains the
		// anterior travel. Clamp.
		return lo, false
	case gHi <= 0:
		return hi, false
	}
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}

// chord returns sqrt(m² − (m−r)²) for r clamped to [0, m]: the horizontal
// distance the hand covers while dropping r below the arm pivot's circle
// top.
func chord(r, m float64) float64 {
	if r < 0 {
		r = 0
	}
	if r > m {
		r = m
	}
	return math.Sqrt(m*m - (m-r)*(m-r))
}

// EstimateWalking estimates the strides of the steps inside one projected
// gait-cycle window (with `margin` context samples each side, as produced
// for gaitid). It locates the arm-swing turning moments from the anterior
// relative velocity, measures h1/h2/d per step with mean-removal
// integration, solves for the bounce and applies Eq. (2).
func (e *Estimator) EstimateWalking(vertical, anterior []float64, margin int, sampleRate float64) []Step {
	n := len(vertical)
	if n < 16 || len(anterior) != n || sampleRate <= 0 {
		return nil
	}
	if margin < 0 || 2*margin >= n {
		margin = 0
	}
	dt := 1 / sampleRate
	v := dsp.FiltFilt(vertical, smoothCutoffHz, sampleRate)
	a := dsp.FiltFilt(anterior, smoothCutoffHz, sampleRate)

	// Swing extremes (i)/(iii): zeros of the hand's anterior velocity.
	// Integrate the anterior acceleration over the whole window and
	// remove the least-squares line — a plain mean removal would leave a
	// large artificial ramp whenever the window does not span a whole
	// number of swing periods, displacing the zeros.
	vel := dsp.Detrend(dsp.CumTrapz(a, dt))
	zeros := dsp.ZeroCrossings(vel)

	coreLen := n - 2*margin
	minStep := int(minStepFraction * float64(coreLen))
	maxStep := int(maxStepFraction * float64(coreLen))

	var steps []Step
	for zi := 0; zi+1 < len(zeros); zi++ {
		zs, ze := zeros[zi], zeros[zi+1]
		span := ze - zs
		if span < minStep || span > maxStep {
			continue
		}
		// The step must overlap the core cycle.
		mid := (zs + ze) / 2
		if mid < margin || mid >= margin+coreLen {
			continue
		}
		step, ok := e.estimateOneStep(v, a, zs, ze, dt)
		if ok {
			steps = append(steps, step)
		}
	}
	return steps
}

// estimateOneStep measures one swing half-cycle [zs, ze] (moments (i) to
// (iii)).
func (e *Estimator) estimateOneStep(v, a []float64, zs, ze int, dt float64) (Step, bool) {
	// Moment (ii): maximum swing speed between the extremes, from the
	// drift-free per-segment velocity (zero at both ends by construction
	// of the segment).
	vel := dsp.CumTrapz(dsp.RemoveMean(a[zs:ze+1]), dt)
	mid := zs
	best := 0.0
	for i, vv := range vel {
		if s := math.Abs(vv); s > best {
			best = s
			mid = zs + i
		}
	}
	if mid <= zs || mid >= ze {
		return Step{}, false
	}

	// Device displacements via mean-removal double integration. Vertical
	// velocity is ~zero at all three key moments; anterior relative
	// velocity is zero at (i) and (iii).
	h1 := -dsp.DisplacementMeanRemoval(v[zs:mid+1], dt) // downward positive
	h2 := dsp.DisplacementMeanRemoval(v[mid:ze+1], dt)  // upward positive
	d := math.Abs(dsp.DisplacementMeanRemoval(a[zs:ze+1], dt))
	if d <= 0 {
		return Step{}, false
	}

	b, _ := SolveBounce(h1, h2, d, e.cfg.ArmLength)
	return Step{
		Stride: StrideFromBounce(b, e.cfg.LegLength, e.cfg.K),
		Bounce: b,
		H1:     h1, H2: h2, D: d,
		Start: zs, Mid: mid, End: ze,
	}, true
}

// EstimateStepping estimates strides when the device rides the torso (the
// paper's stepping case): the bounce is the peak-to-peak vertical
// displacement within each step, measured directly ("above calculations
// will convert to compute bounce b directly in the stepping case").
// The window covers one gait cycle core (two steps) plus margins.
func (e *Estimator) EstimateStepping(vertical []float64, margin int, sampleRate float64) []Step {
	n := len(vertical)
	if n < 16 || sampleRate <= 0 {
		return nil
	}
	if margin < 0 || 2*margin >= n {
		margin = 0
	}
	dt := 1 / sampleRate
	v := dsp.FiltFilt(vertical, smoothCutoffHz, sampleRate)
	core := v[margin : n-margin]
	half := len(core) / 2

	var steps []Step
	for s := 0; s < 2; s++ {
		seg := core[s*half : (s+1)*half]
		disp := dsp.DisplacementSeries(seg, dt)
		if len(disp) == 0 {
			continue
		}
		min, max := dsp.MinMax(disp)
		b := max - min
		steps = append(steps, Step{
			Stride: StrideFromBounce(b, e.cfg.LegLength, e.cfg.K),
			Bounce: b,
			Start:  margin + s*half,
			Mid:    margin + s*half + half/2,
			End:    margin + (s+1)*half,
		})
	}
	return steps
}
