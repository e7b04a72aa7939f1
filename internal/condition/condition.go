// Package condition repairs defective sensor traces into the clean
// fixed-rate streams the DSP layers assume. Real wrist-wearable
// recordings (the paper's LG Watch Urbane substrate, §IV) carry
// timestamp jitter, dropped and duplicated samples, out-of-order
// readings, NaN/Inf spikes and range saturation; fed raw into the
// pipeline those defects corrupt step counts silently. The conditioner
// converts them into measured, graceful degradation:
//
//   - samples are sorted by timestamp and exact-duplicate timestamps
//     deduplicated (first occurrence wins);
//   - samples with non-finite fields are dropped and the hole is
//     bridged by interpolation like any other short gap;
//   - the effective input rate is estimated from the median sample
//     spacing, detecting clock drift against the declared rate and
//     recovering traces with no rate metadata at all;
//   - off-grid timestamps are resampled onto the nominal uniform grid
//     by linear interpolation, short gaps (<= 2 s) are bridged, and
//     long gaps split the trace into independent segments;
//   - clipped/saturated runs are flagged (not repaired) so downstream
//     consumers can discount the affected intervals.
//
// Everything the conditioner did is returned in a Report (per-defect
// counts, gap map, effective rate). A trace that already satisfies the
// ingestion contract passes through untouched — Condition returns the
// input trace itself, so conditioning a clean trace is exactly a no-op.
//
// The streaming variant (Streamer, see stream.go) provides the same
// guarantees online with bounded latency and O(1) amortised work per
// sample.
package condition

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ptrack/internal/trace"
)

// Hooks receives conditioning instrumentation. internal/obs.Hooks
// implements it; a nil interface disables instrumentation.
type Hooks interface {
	// ConditionDefect records n occurrences of one defect kind. Kinds:
	// "out_of_order", "duplicate", "non_finite", "gap_bridged",
	// "gap_split", "clipped_run", "rate_drift", "missing_rate",
	// "rejected".
	ConditionDefect(kind string, n int)
	// ConditionGap records one detected inter-sample gap, in seconds.
	ConditionGap(seconds float64)
	// ConditionStageDone records wall time spent in one conditioning
	// stage ("inspect", "order", "rate", "resample").
	ConditionStageDone(stage string, seconds float64)
}

// Config tunes the conditioner.
type Config struct {
	// NominalRate is the output grid rate in Hz. 0 uses the trace's
	// declared SampleRate, falling back to the estimated effective rate
	// when the declaration is missing or drifts beyond driftTol.
	NominalRate float64
	// Hooks receives defect counters, the gap histogram and per-stage
	// wall time. Nil disables instrumentation.
	Hooks Hooks
}

// The conditioner's fixed repair policy, shared by Condition and the
// Streamer.
const (
	maxGapS    = 2     // longest hole bridged by interpolation, seconds; longer ones split the trace
	jitterTol  = 0.25  // grid offset, fraction of a period, within which a raw timestamp is kept verbatim
	driftTol   = 0.02  // declared-vs-estimated rate disagreement beyond which the declaration is distrusted
	clipLimit  = 39.24 // saturation threshold per acceleration component, m/s^2 (±4 g)
	clipRunMin = 3     // consecutive clipped samples that count as a saturated run
)

// Gap is one detected hole in the input timeline.
type Gap struct {
	Start    float64 // time of the last sample before the hole, seconds
	Duration float64 // hole length, seconds
	Bridged  bool    // filled by interpolation (false: trace split here)
}

// Report is the conditioner's account of what it found and did.
type Report struct {
	Input  int // raw samples in
	Output int // conditioned samples out, across all segments

	OutOfOrder   int // samples that arrived before an earlier timestamp
	Duplicates   int // samples dropped for an exactly repeated timestamp
	NonFinite    int // samples dropped for NaN/Inf fields
	Interpolated int // grid points synthesised by interpolation
	Rejected     int // samples discarded as unusable (no finite neighbours)

	GapsBridged int   // short holes filled by interpolation
	GapsSplit   int   // long holes that split the trace
	Gaps        []Gap // the gap map, in time order

	ClippedSamples int // samples inside saturated runs (flagged, kept)
	ClippedRuns    int

	EffectiveRate float64 // estimated input rate, Hz (median spacing)
	NominalRate   float64 // output grid rate, Hz
	MissingRate   bool    // the trace declared no usable sample rate
	RateDrift     bool    // declared rate distrusted (drift > driftTol)
	Resampled     bool    // output differs from input samples
	Clean         bool    // input already satisfied the contract (pass-through)
}

// Defects returns the total defect count — the headline "how broken was
// this trace" number. Flagged clipping counts per run, not per sample.
func (r *Report) Defects() int {
	n := r.OutOfOrder + r.Duplicates + r.NonFinite + r.Rejected +
		r.GapsBridged + r.GapsSplit + r.ClippedRuns
	if r.MissingRate {
		n++
	}
	if r.RateDrift {
		n++
	}
	return n
}

// ErrEmpty reports a nil or sample-less input trace.
var ErrEmpty = errors.New("condition: empty trace")

// ErrUnusable reports a trace with no conditionable content — every
// sample was rejected (e.g. all timestamps non-finite).
var ErrUnusable = errors.New("condition: no usable samples")

// Condition repairs a raw trace into one or more clean fixed-rate
// segments plus a report of every defect found. A trace that already
// satisfies the ingestion contract (declared positive rate, finite
// fields, strictly increasing on-grid timestamps) is returned as a
// single segment that IS the input trace — a zero-copy no-op.
func Condition(tr *trace.Trace, cfg Config) ([]*trace.Trace, *Report, error) {
	if tr == nil || len(tr.Samples) == 0 {
		return nil, nil, ErrEmpty
	}
	rep := &Report{Input: len(tr.Samples)}
	h := cfg.Hooks

	declared := cfg.NominalRate
	if declared == 0 {
		declared = tr.SampleRate
	}

	t0 := time.Now()
	clean := inspect(tr.Samples, declared)
	stageDone(h, "inspect", t0)
	if clean {
		rep.Clean = true
		rep.EffectiveRate = declared
		rep.NominalRate = declared
		rep.Output = len(tr.Samples)
		countClipping(tr.Samples, rep)
		reportDefects(h, rep)
		return []*trace.Trace{tr}, rep, nil
	}

	// Stage "order": drop non-finite samples, restore time order, drop
	// exact-duplicate timestamps.
	t0 = time.Now()
	samples := make([]trace.Sample, 0, len(tr.Samples))
	for _, s := range tr.Samples {
		if !finiteSample(s) {
			rep.NonFinite++
			continue
		}
		samples = append(samples, s)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T < samples[i-1].T {
			rep.OutOfOrder++
		}
	}
	if rep.OutOfOrder > 0 {
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
	}
	deduped := samples[:0]
	for i, s := range samples {
		if i > 0 && s.T == deduped[len(deduped)-1].T {
			rep.Duplicates++
			continue
		}
		deduped = append(deduped, s)
	}
	samples = deduped
	stageDone(h, "order", t0)
	if len(samples) < 2 {
		rep.Rejected += len(samples)
		reportDefects(h, rep)
		return nil, rep, ErrUnusable
	}

	// Stage "rate": estimate the effective input rate from the median
	// sample spacing and decide the output grid rate.
	t0 = time.Now()
	rep.EffectiveRate = effectiveRate(samples)
	nominal := cfg.NominalRate
	if nominal <= 0 {
		switch {
		case !(declared > 0) || math.IsInf(declared, 1):
			rep.MissingRate = true
			nominal = rep.EffectiveRate
		case rep.EffectiveRate > 0 &&
			math.Abs(rep.EffectiveRate-declared)/declared > driftTol:
			rep.RateDrift = true
			nominal = rep.EffectiveRate
		default:
			nominal = declared
		}
	}
	stageDone(h, "rate", t0)
	if !(nominal > 0) || math.IsInf(nominal, 1) {
		rep.Rejected += len(samples)
		reportDefects(h, rep)
		return nil, rep, ErrUnusable
	}
	rep.NominalRate = nominal

	// Stage "resample": split at long gaps, then project each segment
	// onto the uniform nominal grid, bridging short holes.
	t0 = time.Now()
	dt := 1 / nominal
	var segments []*trace.Trace
	segStart := 0
	for i := 1; i <= len(samples); i++ {
		if i < len(samples) {
			gap := samples[i].T - samples[i-1].T
			if gap <= maxGapS {
				continue
			}
			rep.GapsSplit++
			rep.Gaps = append(rep.Gaps, Gap{Start: samples[i-1].T, Duration: gap})
			if h != nil {
				h.ConditionGap(gap)
			}
		}
		seg := resampleSegment(samples[segStart:i], nominal, dt, rep, h)
		if len(seg) < 2 {
			rep.Rejected += i - segStart
		} else {
			segments = append(segments, &trace.Trace{
				SampleRate: nominal,
				Samples:    seg,
				Label:      tr.Label,
			})
			rep.Output += len(seg)
			countClipping(seg, rep)
		}
		segStart = i
	}
	stageDone(h, "resample", t0)
	reportDefects(h, rep)
	if len(segments) == 0 {
		return nil, rep, ErrUnusable
	}
	return segments, rep, nil
}

// inspect reports whether the samples already satisfy the ingestion
// contract at the declared rate: finite fields, strictly increasing
// timestamps within jitterTol of the uniform grid.
func inspect(samples []trace.Sample, declared float64) bool {
	if !(declared > 0) || math.IsInf(declared, 1) {
		return false
	}
	dt := 1 / declared
	tol := jitterTol * dt
	t0 := samples[0].T
	for i, s := range samples {
		if !finiteSample(s) {
			return false
		}
		if i > 0 && s.T <= samples[i-1].T {
			return false
		}
		if math.Abs(s.T-(t0+float64(i)*dt)) > tol {
			return false
		}
	}
	return true
}

// resampleSegment projects one gap-free-enough run of raw samples onto
// the uniform grid anchored at its first timestamp. Raw samples within
// jitterTol of their grid point are emitted verbatim (timestamp snapped);
// everything else is linearly interpolated. Holes above 1.5 sample
// periods are counted as bridged gaps.
func resampleSegment(raw []trace.Sample, rate, dt float64, rep *Report, h Hooks) []trace.Sample {
	if len(raw) < 2 {
		return nil
	}
	t0 := raw[0].T
	span := raw[len(raw)-1].T - t0
	n := int(math.Round(span*rate)) + 1
	tol := jitterTol * dt
	out := make([]trace.Sample, 0, n)
	j := 0
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*dt
		for j+1 < len(raw) && raw[j+1].T <= t+tol {
			gap := raw[j+1].T - raw[j].T
			if gap > 1.5*dt {
				rep.GapsBridged++
				rep.Gaps = append(rep.Gaps, Gap{Start: raw[j].T, Duration: gap, Bridged: true})
				if h != nil {
					h.ConditionGap(gap)
				}
			}
			j++
		}
		var s trace.Sample
		switch {
		case math.Abs(raw[j].T-t) <= tol:
			s = raw[j]
		case j+1 < len(raw) && math.Abs(raw[j+1].T-t) <= tol:
			s = raw[j+1]
		case j+1 < len(raw):
			f := (t - raw[j].T) / (raw[j+1].T - raw[j].T)
			s = lerpSample(raw[j], raw[j+1], f)
			rep.Interpolated++
			rep.Resampled = true
		default:
			// Past the last raw sample (rounding): hold the last value.
			s = raw[j]
			rep.Interpolated++
			rep.Resampled = true
		}
		s.T = t
		out = append(out, s)
	}
	if len(out) != len(raw) {
		rep.Resampled = true
	}
	return out
}

// countClipping flags saturated runs in a finished sample run.
func countClipping(samples []trace.Sample, rep *Report) {
	run := 0
	flush := func() {
		if run >= clipRunMin {
			rep.ClippedSamples += run
			rep.ClippedRuns++
		}
		run = 0
	}
	for _, s := range samples {
		if clipped(s) {
			run++
		} else {
			flush()
		}
	}
	flush()
}

func clipped(s trace.Sample) bool {
	return math.Abs(s.Accel.X) >= clipLimit ||
		math.Abs(s.Accel.Y) >= clipLimit ||
		math.Abs(s.Accel.Z) >= clipLimit
}

func finiteSample(s trace.Sample) bool {
	return finite(s.T) && finite(s.Accel.X) && finite(s.Accel.Y) && finite(s.Accel.Z) &&
		finite(s.Gyro.X) && finite(s.Gyro.Y) && finite(s.Gyro.Z) && finite(s.Yaw)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func lerpSample(a, b trace.Sample, f float64) trace.Sample {
	return trace.Sample{
		T:     a.T + f*(b.T-a.T),
		Accel: a.Accel.Lerp(b.Accel, f),
		Gyro:  a.Gyro.Lerp(b.Gyro, f),
		Yaw:   a.Yaw + f*(b.Yaw-a.Yaw),
	}
}

// effectiveRate estimates the input rate as the inverse median positive
// sample spacing — robust to dropouts (which stretch a minority of the
// spacings) and to jitter (which is zero-mean around the true period).
func effectiveRate(sorted []trace.Sample) float64 {
	dts := make([]float64, 0, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		if d := sorted[i].T - sorted[i-1].T; d > 0 {
			dts = append(dts, d)
		}
	}
	if len(dts) == 0 {
		return 0
	}
	sort.Float64s(dts)
	med := dts[len(dts)/2]
	if len(dts)%2 == 0 {
		med = (med + dts[len(dts)/2-1]) / 2
	}
	if med <= 0 {
		return 0
	}
	return 1 / med
}

func stageDone(h Hooks, stage string, t0 time.Time) {
	if h != nil {
		h.ConditionStageDone(stage, time.Since(t0).Seconds())
	}
}

// reportDefects pushes the report's defect counts into the hooks in one
// batch (the batch conditioner accumulates locally and flushes here;
// the streamer reports incrementally instead).
func reportDefects(h Hooks, rep *Report) {
	if h == nil {
		return
	}
	h.ConditionDefect("out_of_order", rep.OutOfOrder)
	h.ConditionDefect("duplicate", rep.Duplicates)
	h.ConditionDefect("non_finite", rep.NonFinite)
	h.ConditionDefect("gap_bridged", rep.GapsBridged)
	h.ConditionDefect("gap_split", rep.GapsSplit)
	h.ConditionDefect("clipped_run", rep.ClippedRuns)
	h.ConditionDefect("rejected", rep.Rejected)
	if rep.MissingRate {
		h.ConditionDefect("missing_rate", 1)
	}
	if rep.RateDrift {
		h.ConditionDefect("rate_drift", 1)
	}
}

// String renders a one-line human summary, for CLI reports.
func (r *Report) String() string {
	if r.Clean {
		return fmt.Sprintf("clean pass-through (%d samples at %g Hz)", r.Input, r.NominalRate)
	}
	return fmt.Sprintf(
		"%d defects: %d out-of-order, %d duplicate, %d non-finite, %d gaps bridged, %d splits, %d clipped runs; %d -> %d samples at %g Hz (effective %.2f Hz)",
		r.Defects(), r.OutOfOrder, r.Duplicates, r.NonFinite,
		r.GapsBridged, r.GapsSplit, r.ClippedRuns,
		r.Input, r.Output, r.NominalRate, r.EffectiveRate)
}
