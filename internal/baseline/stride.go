package baseline

import (
	"math"

	"ptrack/internal/dsp"
	"ptrack/internal/project"
	"ptrack/internal/segment"
	"ptrack/internal/trace"
)

// StrideModel identifies one of the stride estimators of Fig. 1(d),
// applied directly to the wrist signal the way the paper does to motivate
// PTrack.
type StrideModel int

// Stride models.
const (
	// StrideBiomechanical is Zijlstra's inverted-pendulum model [19]:
	// s = k·sqrt(2·l·h − h²) with h the vertical displacement taken
	// directly from the device — correct when the sensor rides the body,
	// wrong on a wrist because the arm's vertical motion contaminates h.
	StrideBiomechanical StrideModel = iota + 1
	// StrideEmpirical is the Weinberg model [20]: s = K·(a_max −
	// a_min)^(1/4) over each step's vertical acceleration.
	StrideEmpirical
	// StrideIntegral double-integrates the horizontal acceleration over
	// the step — §II explains why this measures the time-varying part vt
	// rather than the stride.
	StrideIntegral
)

// String implements fmt.Stringer.
func (m StrideModel) String() string {
	switch m {
	case StrideBiomechanical:
		return "biomechanical"
	case StrideEmpirical:
		return "empirical"
	case StrideIntegral:
		return "integral"
	default:
		return "unknown-model"
	}
}

// StrideConfig parameterises the baseline models.
type StrideConfig struct {
	LegLength float64 // biomechanical model's l, metres
	K         float64 // biomechanical calibration, default 1.2 (Zijlstra)
}

// kEmp is the empirical (Weinberg) model's constant.
const kEmp = 0.55

func (c StrideConfig) withDefaults() StrideConfig {
	if c.LegLength == 0 {
		c.LegLength = 0.9
	}
	if c.K == 0 {
		c.K = 1.2
	}
	return c
}

// EstimateStrides applies the chosen model to every step candidate of the
// trace (per-step estimates, in order). This is the Fig. 1(d)/Fig. 8(a)
// baseline path: the front-end segmentation is shared with PTrack so the
// comparison isolates the stride model itself.
func EstimateStrides(tr *trace.Trace, model StrideModel, cfg StrideConfig) []float64 {
	cfg = cfg.withDefaults()
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return nil
	}
	seg := segment.Segment(tr, segment.Config{})
	series := project.Decompose(tr)
	dt := 1 / tr.SampleRate

	var out []float64
	for _, cyc := range seg.Cycles {
		w := series.ProjectWindow(cyc.Start, cyc.End)
		if !w.OK {
			continue
		}
		v := dsp.FiltFilt(w.Vertical, 4.5, tr.SampleRate)
		a := dsp.FiltFilt(w.Anterior, 4.5, tr.SampleRate)
		half := len(v) / 2
		for s := 0; s < 2; s++ {
			lo, hi := s*half, (s+1)*half
			if hi > len(v) {
				hi = len(v)
			}
			if hi-lo < 4 {
				continue
			}
			out = append(out, strideForStep(v[lo:hi], a[lo:hi], dt, model, cfg))
		}
	}
	return out
}

func strideForStep(vert, ant []float64, dt float64, model StrideModel, cfg StrideConfig) float64 {
	switch model {
	case StrideBiomechanical:
		disp := dsp.DisplacementSeries(vert, dt)
		min, max := dsp.MinMax(disp)
		h := max - min
		if h > cfg.LegLength {
			h = cfg.LegLength
		}
		return cfg.K * math.Sqrt(2*cfg.LegLength*h-h*h)
	case StrideEmpirical:
		min, max := dsp.MinMax(vert)
		return kEmp * math.Pow(math.Abs(max-min), 0.25)
	case StrideIntegral:
		return math.Abs(dsp.DisplacementNaive(ant, dt))
	default:
		return 0
	}
}

// MontageStride is the Montage distance path (Fig. 8(a) comparison): the
// biomechanical model with the device assumed firmly attached to the
// body. On a wrist the assumption is violated and the error balloons —
// which is the paper's point.
func MontageStride(tr *trace.Trace, cfg StrideConfig) []float64 {
	return EstimateStrides(tr, StrideBiomechanical, cfg)
}
