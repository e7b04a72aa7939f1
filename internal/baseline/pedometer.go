// Package baseline implements the systems PTrack is evaluated against in
// the paper: peak-detection step counters in the style of Google Fit and
// Montage (Zhang et al., INFOCOM'14), the machine-learning activity
// recogniser SCAR (Dernbach et al., IE'12), and the stride-estimation
// models of Fig. 1(d) — biomechanical (Zijlstra), empirical (Weinberg) and
// direct double integration.
//
// Faithfulness note: these are implemented from the cited descriptions,
// tuned to show the design properties the paper measures (peak counters
// count any rhythmic motion; SCAR is accurate on trained activities and
// degrades on unseen ones), not to match any product binary.
package baseline

import (
	"math"

	"ptrack/internal/dsp"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
)

// PeakCounterConfig tunes a magnitude-peak step counter.
type PeakCounterConfig struct {
	MinPeakProminence float64 // default 0.8 m/s^2
	// ContinuityWindow, when > 0, enables Montage-style movement
	// continuity: a peak only counts when its interval to the previous
	// peak is within continuityRatio of the running period estimate, with
	// ContinuityWindow peaks needed to (re)lock. Zero disables (GFit-like
	// behaviour).
	ContinuityWindow int
}

// The peak counters' fixed front end and rhythm bounds.
const (
	counterCutoffHz     = 5    // magnitude low-pass before peak picking
	counterMinPeakDistS = 0.25 // refractory period between peaks, seconds
	continuityRatio     = 0.45 // tolerated interval deviation from the running period
	periodMinS          = 0.25 // plausible step period bounds, seconds
	periodMaxS          = 1.4
)

func (c PeakCounterConfig) withDefaults() PeakCounterConfig {
	if c.MinPeakProminence == 0 {
		c.MinPeakProminence = 0.8
	}
	return c
}

// GFitConfig returns the configuration modelling a built-in wearable
// counter: plain peak detection, no continuity gating.
func GFitConfig() PeakCounterConfig {
	return PeakCounterConfig{}.withDefaults()
}

// MontageConfig returns the configuration modelling Montage's step
// detector: peak detection plus movement-continuity locking.
func MontageConfig() PeakCounterConfig {
	c := PeakCounterConfig{ContinuityWindow: 3}
	return c.withDefaults()
}

// MobileAppConfig returns the configuration modelling a phone pedometer
// app (Fig. 1(b)): a looser threshold than the wearable counters.
func MobileAppConfig() PeakCounterConfig {
	return PeakCounterConfig{MinPeakProminence: 0.6}.withDefaults()
}

// CountSteps runs the peak-detection counter over a trace and returns the
// step count. This is the "existing approaches" behaviour the paper
// probes: every sufficiently strong rhythmic peak is a step.
func CountSteps(tr *trace.Trace, cfg PeakCounterConfig) int {
	peaks := stepPeaks(tr, cfg)
	if len(peaks) == 0 {
		return 0
	}
	cfg = cfg.withDefaults()
	if cfg.ContinuityWindow <= 0 {
		return len(peaks)
	}
	return countWithContinuity(peaks, tr.SampleRate, cfg)
}

// stepPeaks returns the candidate step peaks of the magnitude channel.
func stepPeaks(tr *trace.Trace, cfg PeakCounterConfig) []int {
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	mag := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		mag[i] = s.Accel.Norm() - imu.StandardGravity
	}
	mag = dsp.FiltFilt(mag, counterCutoffHz, tr.SampleRate)
	return dsp.FindPeaks(mag, dsp.PeakOptions{
		MinProminence: cfg.MinPeakProminence,
		MinDistance:   int(math.Round(counterMinPeakDistS * tr.SampleRate)),
	})
}

// countWithContinuity applies Montage-style movement-continuity gating:
// the counter locks onto a rhythm after ContinuityWindow consistent
// intervals and counts peaks while the rhythm persists. Note that any
// steady rhythm locks it — including a spoofing cradle — which is exactly
// the vulnerability Fig. 7(b) demonstrates.
func countWithContinuity(peaks []int, sampleRate float64, cfg PeakCounterConfig) int {
	count := 0
	var period float64 // running period estimate, seconds
	streak := 0
	locked := false
	for i := 1; i < len(peaks); i++ {
		interval := float64(peaks[i]-peaks[i-1]) / sampleRate
		if interval < periodMinS || interval > periodMaxS {
			locked = false
			streak = 0
			period = 0
			continue
		}
		if period == 0 {
			period = interval
			streak = 1
			continue
		}
		if math.Abs(interval-period) <= continuityRatio*period {
			period = 0.7*period + 0.3*interval
			streak++
			if !locked && streak >= cfg.ContinuityWindow {
				locked = true
				count += streak + 1 // credit the locked-in run retroactively
			} else if locked {
				count++
			}
		} else {
			locked = false
			streak = 0
			period = interval
		}
	}
	return count
}
