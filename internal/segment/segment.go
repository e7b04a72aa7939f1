// Package segment implements the front end PTrack inherits from existing
// pedestrian-tracking systems (the grayed boxes of Fig. 2): low-pass
// filtering of the accelerometer magnitude, peak detection, and
// segmentation of the stream into gait-cycle candidates. Everything this
// package emits is only a *candidate* — rigid interference produces
// candidates too; telling them apart is gaitid's job.
package segment

import (
	"math"

	"ptrack/internal/dsp"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
)

// Config tunes the candidate detector. Zero values select the defaults
// noted on each field.
type Config struct {
	// LowPassCutoffHz smooths the magnitude before peak detection.
	// Default 5 Hz — keeps the step impacts, drops sensor noise.
	LowPassCutoffHz float64
}

// The candidate detector's fixed parameters, shared by the batch
// segmenter and the streaming tracker (internal/stream).
const (
	// MinPeakProminence rejects ripples, m/s^2.
	MinPeakProminence = 0.8
	// MinPeakDistanceS enforces a refractory period between step peaks,
	// seconds (max 4 steps/s).
	MinPeakDistanceS = 0.25
	// MinCycleS and MaxCycleS bound a plausible gait cycle (two steps),
	// seconds.
	MinCycleS = 0.6
	MaxCycleS = 2.8
	// MaxPeriodRatio bounds how unequal the two step intervals within one
	// candidate cycle may be.
	MaxPeriodRatio = 1.8
	// MaxAmplitudeRatio bounds how unequal the peak heights within one
	// candidate cycle may be — steady gait produces near-equal step
	// impacts, while the ramp-up of a sporadic gesture does not.
	MaxAmplitudeRatio = 1.8
)

// WithDefaults returns the config with every zero field replaced by its
// documented default. It is the single source of truth for front-end
// defaulting: both the batch segmenter (Segment) and the online tracker
// (internal/stream) resolve their configuration through it, so a default
// change cannot silently diverge the two paths.
func (c Config) WithDefaults() Config {
	if c.LowPassCutoffHz == 0 {
		c.LowPassCutoffHz = 5
	}
	return c
}

// Cycle is one gait-cycle candidate: two consecutive peak-to-peak
// intervals of the magnitude signal, i.e. two candidate steps.
type Cycle struct {
	Start, End int    // sample range [Start, End)
	Peaks      [2]int // the two step-peak sample indices inside the cycle
}

// Len returns the candidate length in samples.
func (c Cycle) Len() int { return c.End - c.Start }

// Result carries the candidate cycles along with the intermediate signals
// downstream stages reuse.
type Result struct {
	Magnitude []float64 // |accel| - G, low-passed (the peak-detection signal)
	Peaks     []int     // all retained step-peak indices
	Cycles    []Cycle   // gait-cycle candidates, non-overlapping, in order
}

// Segment runs the front end over a trace.
func Segment(tr *trace.Trace, cfg Config) *Result {
	cfg = cfg.WithDefaults()
	res := &Result{}
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return res
	}

	// Magnitude channel: orientation-free step energy.
	mag := make([]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		mag[i] = s.Accel.Norm() - imu.StandardGravity
	}
	mag = dsp.FiltFilt(mag, cfg.LowPassCutoffHz, tr.SampleRate)
	res.Magnitude = mag

	res.Peaks = dsp.FindPeaks(mag, dsp.PeakOptions{
		MinProminence: MinPeakProminence,
		MinDistance:   int(math.Round(MinPeakDistanceS * tr.SampleRate)),
	})

	res.Cycles = pairCycles(res.Peaks, mag, tr.SampleRate)
	return res
}

// pairCycles groups step peaks into non-overlapping two-step candidates.
// A candidate is accepted when its total duration is a plausible gait
// cycle and its two step intervals are not wildly unequal; otherwise the
// window advances one peak, so a single spurious peak cannot poison the
// whole stream.
func pairCycles(peaks []int, mag []float64, sampleRate float64) []Cycle {
	var cycles []Cycle
	i := 0
	for i+2 < len(peaks) {
		p0, p1, p2 := peaks[i], peaks[i+1], peaks[i+2]
		if PlausibleCycle(mag, 0, p0, p1, p2, sampleRate) {
			cycles = append(cycles, Cycle{Start: p0, End: p2, Peaks: [2]int{p0, p1}})
			i += 2 // non-overlapping: next cycle starts at p2
		} else {
			i++
		}
	}
	return cycles
}

// PlausibleCycle reports whether three consecutive step peaks p0 < p1 <
// p2 (sample indices) delimit a plausible gait cycle: a total duration
// within [MinCycleS, MaxCycleS], two step intervals within
// MaxPeriodRatio of each other, and peak heights of the smoothed
// magnitude within MaxAmplitudeRatio of each other (heights floored at
// 1e-3). The height of peak p is smooth[p-off], so a caller holding a
// sliding window passes the window's first absolute index as off. It is
// the one cycle rule of the batch segmenter and the streaming tracker.
func PlausibleCycle(smooth []float64, off, p0, p1, p2 int, sampleRate float64) bool {
	d1 := float64(p1-p0) / sampleRate
	d2 := float64(p2-p1) / sampleRate
	total := d1 + d2
	ratio := math.Max(d1, d2) / math.Max(math.Min(d1, d2), 1e-9)
	return total >= MinCycleS && total <= MaxCycleS &&
		ratio <= MaxPeriodRatio &&
		amplitudeConsistent(smooth, off, p0, p1, p2)
}

// amplitudeConsistent reports whether the three step-peak heights are
// within MaxAmplitudeRatio of each other.
func amplitudeConsistent(smooth []float64, off, p0, p1, p2 int) bool {
	const floor = 1e-3
	lo, hi := math.Inf(1), 0.0
	for _, p := range [3]int{p0, p1, p2} {
		h := smooth[p-off]
		if h < floor {
			h = floor
		}
		if h < lo {
			lo = h
		}
		if h > hi {
			hi = h
		}
	}
	return hi/lo <= MaxAmplitudeRatio
}
