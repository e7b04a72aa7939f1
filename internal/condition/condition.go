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
//     by linear interpolation (of two raw samples near one grid point
//     the nearer one is kept), short gaps (<= 2 s) are bridged while
//     the output stays within maxAmplify samples per raw one, and
//     other gaps split the trace into independent segments;
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
// sample. Both commit to the output grid through one path (grid), so
// a trace whose reordering fits the reorder window conditions the same
// either way.
package condition

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	maxAmplify = 2     // samples a bridge may emit per raw sample committed, beyond one maxGapS hole's worth
	maxRate    = 1000  // highest grid rate accepted, Hz; bounds the maxGapS·rate bridge allowance
)

// usableRate reports whether r can be a grid rate: positive, finite and
// at most maxRate.
func usableRate(r float64) bool { return r > 0 && r <= maxRate }

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
		g := newGrid(declared, h)
		for i := range tr.Samples {
			g.clip(&tr.Samples[i]) // flag saturated runs, as the commit path does
		}
		g.endClipRun()
		rep.ClippedSamples, rep.ClippedRuns = g.rep.ClippedSamples, g.rep.ClippedRuns
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
	if !usableRate(nominal) {
		rep.Rejected += len(samples)
		reportDefects(h, rep)
		return nil, rep, ErrUnusable
	}
	rep.NominalRate = nominal

	// Stage "resample": fold the ordered samples through the Streamer's
	// commit path, each with the next one as its lookahead, and cut a
	// segment wherever it splits.
	t0 = time.Now()
	g := newGrid(nominal, h)
	g.rep = *rep
	// One backing array serves every segment, sized for the grid span
	// or the amplification bound, whichever is smaller.
	span := (samples[len(samples)-1].T - samples[0].T) * nominal
	buf := make([]trace.Sample, 0, int(math.Min(span+2, maxAmplify*float64(len(samples))+maxGapS*nominal)))
	var segments []*trace.Trace
	segStart, rawStart := 0, 0
	cut := func(rawEnd int) {
		seg := buf[segStart:len(buf):len(buf)]
		if len(seg) < 2 {
			g.rep.Rejected += rawEnd - rawStart
			g.rep.Output -= len(seg)
			buf = buf[:segStart]
		} else {
			segments = append(segments, &trace.Trace{SampleRate: nominal, Samples: seg, Label: tr.Label})
		}
		segStart, rawStart = len(buf), rawEnd
	}
	for i := range samples {
		g.out = g.out[:0]
		g.commit(samples[i:])
		for j := range g.out {
			if g.out[j].Split {
				cut(i)
			}
			buf = append(buf, g.out[j].Sample)
		}
	}
	g.endClipRun()
	cut(len(samples))
	*rep = g.rep
	stageDone(h, "resample", t0)
	reportDefects(h, rep)
	if len(segments) == 0 {
		return nil, rep, ErrUnusable
	}
	return segments, rep, nil
}

// inspect reports whether the samples already satisfy the ingestion
// contract at the declared rate: a usable rate, finite fields, strictly
// increasing timestamps within jitterTol of the uniform grid.
func inspect(samples []trace.Sample, declared float64) bool {
	if !usableRate(declared) {
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

func clipped(s *trace.Sample) bool {
	return math.Abs(s.Accel.X) >= clipLimit ||
		math.Abs(s.Accel.Y) >= clipLimit ||
		math.Abs(s.Accel.Z) >= clipLimit
}

func finiteSample(s trace.Sample) bool {
	return finite(s.T) && finite(s.Accel.X) && finite(s.Accel.Y) && finite(s.Accel.Z) &&
		finite(s.Gyro.X) && finite(s.Gyro.Y) && finite(s.Gyro.Z) && finite(s.Yaw)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func lerpSample(a, b *trace.Sample, f float64) trace.Sample {
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
	med := median(dts)
	if med <= 0 {
		return 0
	}
	return 1 / med
}

// median returns the median of x, reordering x in place. It selects the
// middle order statistics instead of sorting every value: the upper one
// by selectNth, the lower one (even lengths) as the largest value left
// of it. They are the values a full sort would put in the middle, so the
// result is bit-identical to sorting.
func median(x []float64) float64 {
	k := len(x) / 2
	selectNth(x, k)
	med := x[k]
	if len(x)%2 == 0 {
		med = (med + slices.Max(x[:k])) / 2
	}
	return med
}

// selectNth reorders x so that x[k] holds the value a sort would put
// there, with no larger value before it and no smaller one after it.
// It is a quickselect on a median-of-three pivot with a three-way
// partition, so runs of equal spacings cost one pass. A range still
// unresolved after 2·log2(len(x)) partitions is sorted outright, so
// crafted input cannot drive it quadratic.
func selectNth(x []float64, k int) {
	lo, hi := 0, len(x)
	for depth := 2 * bits.Len(uint(len(x))); hi-lo > 1; depth-- {
		if depth == 0 {
			slices.Sort(x[lo:hi])
			return
		}
		p := medianOfThree(x[lo], x[lo+(hi-lo)/2], x[hi-1])
		// [lo,lt) < p, [lt,i) == p, [gt,hi) > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case x[i] < p:
				x[lt], x[i] = x[i], x[lt]
				lt++
				i++
			case x[i] > p:
				gt--
				x[gt], x[i] = x[i], x[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

func stageDone(h Hooks, stage string, t0 time.Time) {
	if h != nil {
		h.ConditionStageDone(stage, time.Since(t0).Seconds())
	}
}

// reportDefects pushes the order and rate stages' defect counts into
// the hooks in one batch; the shared commit path reports gaps and
// clipped runs as it finds them.
func reportDefects(h Hooks, rep *Report) {
	if h == nil {
		return
	}
	h.ConditionDefect("out_of_order", rep.OutOfOrder)
	h.ConditionDefect("duplicate", rep.Duplicates)
	h.ConditionDefect("non_finite", rep.NonFinite)
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
