// Package ptrack is a Go implementation of PTrack (Jiang, Li, Wang —
// "PTrack: Enhancing the Applicability of Pedestrian Tracking with
// Wearables", IEEE ICDCS 2017): interference-robust step counting and
// stride estimation from wrist-worn accelerometers.
//
// The package exposes the full system the paper describes:
//
//   - Tracker: the PTrack pipeline — front-end gait-cycle segmentation,
//     vertical/anterior projection, critical-point gait-type
//     identification (walking / stepping / interference), step counting
//     and per-step stride estimation.
//   - TrainProfile: the self-training mechanism that learns the user's
//     arm/leg profile and Eq. (2) calibration without manual measurement.
//   - Simulate and the activity constants: the biomechanical wrist-IMU
//     simulator used as the evaluation substrate (walking, stepping,
//     jogging, and the interference activities of the paper: eating,
//     poker, photo, gaming, swinging, plus a mechanical spoofer).
//   - ReadTraceCSV / WriteTraceCSV: trace persistence.
//
// A minimal session:
//
//	rec, _ := ptrack.Simulate(ptrack.DefaultSimProfile(), ptrack.DefaultSimConfig(),
//	    []ptrack.SimSegment{{Activity: ptrack.ActivityWalking, Duration: 60}})
//	tk, _ := ptrack.New(ptrack.WithProfile(0.62, 0.90, 2.35))
//	res, _ := tk.Process(rec.Trace)
//	fmt.Println(res.Steps, res.Distance)
package ptrack

import (
	"errors"
	"fmt"
	"io"
	"math"

	"ptrack/internal/condition"
	"ptrack/internal/core"
	"ptrack/internal/fitness"
	"ptrack/internal/gaitid"
	"ptrack/internal/gaitsim"
	"ptrack/internal/selftrain"
	"ptrack/internal/stream"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// Re-exported data types. The aliases give library users access to the
// shared trace model without reaching into internal packages.
type (
	// Trace is a uniformly sampled wrist accelerometer recording.
	Trace = trace.Trace
	// Sample is one device-frame accelerometer reading plus fused yaw.
	Sample = trace.Sample
	// Activity labels a motion type.
	Activity = trace.Activity
	// Recording bundles a trace with simulation ground truth.
	Recording = trace.Recording
	// GroundTruth is the simulator's per-trace ground truth.
	GroundTruth = trace.GroundTruth
	// StepTruth is one true step with its stride.
	StepTruth = trace.StepTruth

	// SimProfile describes a simulated user.
	SimProfile = gaitsim.Profile
	// SimConfig controls the simulation environment.
	SimConfig = gaitsim.Config
	// SimSegment is one scripted activity interval.
	SimSegment = gaitsim.Segment

	// Result is the pipeline output for a trace.
	Result = core.Result
	// CycleOutcome is one classified gait-cycle candidate.
	CycleOutcome = core.CycleOutcome
	// StepEstimate is one counted step with its stride estimate.
	StepEstimate = core.StepEstimate
	// Label is a per-cycle gait classification.
	Label = gaitid.Label

	// ConditionReport tallies the defects the ingestion conditioner found
	// and repaired in a trace (see WithConditioning and ConditionTrace).
	ConditionReport = condition.Report
	// ConditionGap describes one timing gap found by the conditioner.
	ConditionGap = condition.Gap
)

// Activity constants (see the paper's evaluation, §II and §IV).
const (
	ActivityUnknown  = trace.ActivityUnknown
	ActivityWalking  = trace.ActivityWalking
	ActivityStepping = trace.ActivityStepping
	ActivityJogging  = trace.ActivityJogging
	ActivityIdle     = trace.ActivityIdle
	ActivityEating   = trace.ActivityEating
	ActivityPoker    = trace.ActivityPoker
	ActivityPhoto    = trace.ActivityPhoto
	ActivityGaming   = trace.ActivityGaming
	ActivitySwinging = trace.ActivitySwinging
	ActivitySpoofing = trace.ActivitySpoofing
	ActivityRunning  = trace.ActivityRunning
)

// Gait-cycle labels (Fig. 6(b)'s breakdown).
const (
	LabelInterference = gaitid.LabelInterference
	LabelWalking      = gaitid.LabelWalking
	LabelStepping     = gaitid.LabelStepping
)

// Tracker is the PTrack pipeline. Construct with New; safe to reuse
// across traces, not safe for concurrent use. For many traces at once,
// see BatchProcess / NewPool.
type Tracker struct {
	pl *core.Pipeline
	// cond is non-nil when WithConditioning is enabled; Process then
	// repairs defective traces instead of rejecting them.
	cond *condition.Config
}

// New builds a Tracker. Without WithProfile it counts steps only.
// Configuration errors wrap the package sentinels (ErrInvalidProfile).
func New(opts ...Option) (*Tracker, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPipeline(o.coreConfig())
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	t := &Tracker{pl: pl}
	if o.conditioning {
		cc := o.conditionConfig()
		t.cond = &cc
	}
	return t, nil
}

// Process runs the pipeline over a trace, returning steps, per-step
// strides (when a profile is configured) and per-cycle diagnostics.
// Trace errors wrap ErrEmptyTrace or ErrInvalidSampleRate; a trace that
// violates the ingestion contract (out-of-order timestamps, NaN/Inf
// samples, timing inconsistent with the declared rate) is rejected with
// ErrDefectiveTrace — unless the tracker was built WithConditioning, in
// which case it is repaired first and the repairs are reported in
// Result.Conditioning. A conditioned recording with unbridgeable gaps
// is processed as independent segments whose step counts accumulate
// into the one Result.
func (t *Tracker) Process(tr *Trace) (*Result, error) {
	segs, rep, err := admit(tr, t.cond)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(segs))
	for i, seg := range segs {
		if results[i], err = t.pl.Process(seg); err != nil {
			return nil, fmt.Errorf("ptrack: %w", err)
		}
	}
	return fold(segs, results, rep), nil
}

// admit applies the ingestion contract to one trace and returns the
// segments to process. Without conditioning (cond == nil) the trace is
// validated and is its own single segment; with conditioning it is
// repaired, possibly into several segments, and the repair report is
// returned. Errors wrap ErrEmptyTrace, ErrInvalidSampleRate or
// ErrDefectiveTrace.
func admit(tr *Trace, cond *condition.Config) ([]*Trace, *ConditionReport, error) {
	if cond == nil {
		if err := validTrace(tr); err != nil {
			return nil, nil, fmt.Errorf("ptrack: %w", err)
		}
		if err := tr.Validate(); err != nil {
			return nil, nil, fmt.Errorf("ptrack: %w: %v", ErrDefectiveTrace, err)
		}
		return []*Trace{tr}, nil, nil
	}
	if tr == nil || len(tr.Samples) == 0 {
		return nil, nil, fmt.Errorf("ptrack: %w", ErrEmptyTrace)
	}
	segs, rep, err := condition.Condition(tr, *cond)
	if err != nil {
		return nil, nil, fmt.Errorf("ptrack: %w: %v", ErrDefectiveTrace, err)
	}
	return segs, rep, nil
}

// fold combines the per-segment results of one admitted trace into its
// Result: an unconditioned trace (nil report) has exactly one, returned
// as is; conditioned segments are merged onto the recording's timeline.
func fold(segs []*Trace, results []*Result, rep *ConditionReport) *Result {
	if rep == nil {
		return results[0]
	}
	merged := &Result{Conditioning: rep}
	t0 := segs[0].Samples[0].T
	for i, seg := range segs {
		mergeResult(merged, results[i], seg.Samples[0].T-t0, seg.SampleRate)
	}
	return merged
}

// mergeResult accumulates one conditioned segment's result into dst,
// shifting cycle and step times by the segment's offset within the
// recording (the pipeline reports times relative to segment start).
func mergeResult(dst, res *Result, offsetS, rate float64) {
	offSamples := int(math.Round(offsetS * rate))
	dst.Steps += res.Steps
	dst.Distance += res.Distance
	for _, c := range res.Cycles {
		c.T += offsetS
		c.Start += offSamples
		c.End += offSamples
		dst.Cycles = append(dst.Cycles, c)
	}
	for _, s := range res.StepLog {
		s.T += offsetS
		dst.StepLog = append(dst.StepLog, s)
	}
}

// ConditionTrace runs the ingestion conditioner standalone: it returns
// the repaired trace segments (split at unbridgeable gaps; a clean
// trace comes back as its original pointer in a one-element slice) and
// the defect report. Errors wrap ErrEmptyTrace or — when no usable
// samples survive — ErrDefectiveTrace.
func ConditionTrace(tr *Trace) ([]*Trace, *ConditionReport, error) {
	segs, rep, err := condition.Condition(tr, condition.Config{})
	if err != nil {
		if errors.Is(err, condition.ErrEmpty) {
			return nil, nil, fmt.Errorf("ptrack: %w", ErrEmptyTrace)
		}
		return nil, rep, fmt.Errorf("ptrack: %w: %v", ErrDefectiveTrace, err)
	}
	return segs, rep, nil
}

// TrainProfile runs the paper's self-training (§III-C2) over a recording
// that contains natural walking (ideally with some still-arm "stepping"
// intervals). knownDistance, when positive, is the true distance covered
// and calibrates the Eq. (2) factor k — the paper's initialization phase;
// pass 0 to keep a population prior for k.
func TrainProfile(tr *Trace, knownDistance float64) (Profile, error) {
	cfg, _, err := selftrain.Train(tr, knownDistance)
	if err != nil {
		return Profile{}, fmt.Errorf("ptrack: %w", err)
	}
	return Profile{ArmLength: cfg.ArmLength, LegLength: cfg.LegLength, K: cfg.K}, nil
}

// CalibrateK refits only the calibration factor k of an existing profile
// against a recording with a known distance.
func CalibrateK(tr *Trace, p Profile, knownDistance float64) (float64, error) {
	k, err := selftrain.CalibrateK(tr, stride.Config{
		ArmLength: p.ArmLength, LegLength: p.LegLength, K: p.K,
	}, knownDistance)
	if err != nil {
		return 0, fmt.Errorf("ptrack: %w", err)
	}
	return k, nil
}

// DefaultSimProfile returns a plausible adult user for simulation.
func DefaultSimProfile() SimProfile { return gaitsim.DefaultProfile() }

// DefaultSimConfig returns the standard 100 Hz smartwatch simulation
// environment.
func DefaultSimConfig() SimConfig { return gaitsim.DefaultConfig() }

// Simulate renders a scripted activity sequence into a sensor trace with
// ground truth — the synthetic substrate standing in for the paper's LG
// Urbane prototype (see DESIGN.md for the substitution rationale).
func Simulate(p SimProfile, cfg SimConfig, script []SimSegment) (*Recording, error) {
	rec, err := gaitsim.Simulate(p, cfg, script)
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	return rec, nil
}

// Event is one online classification report (see NewOnline).
type Event = stream.Event

// Online is the streaming variant of the pipeline: feed samples one at a
// time with Push and receive classification events with bounded latency
// (about one gait cycle plus the context margin). Construct with
// NewOnline; not safe for concurrent use.
type Online struct {
	tk *stream.Tracker
}

// NewOnline builds a streaming tracker for samples at the given rate,
// accepting the same options as New — including WithAdaptiveThreshold,
// which makes δ track the recent offset distribution online.
// Configuration errors wrap ErrInvalidProfile / ErrInvalidSampleRate.
func NewOnline(sampleRate float64, opts ...Option) (*Online, error) {
	o, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if err := validSampleRate(sampleRate); err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	tk, err := stream.New(o.streamConfig(sampleRate))
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	return &Online{tk: tk}, nil
}

// BlockSamples is the native block size of the streaming hot path — the
// sample count PushBlock amortizes its bookkeeping across, matching one
// full binary wire payload buffer. Callers may pass blocks of any size;
// multiples of this are merely the sweet spot.
const BlockSamples = stream.BlockSamples

// Push consumes one sample and returns any newly decidable events. The
// returned slice is owned by the tracker and valid until the next Push,
// PushBlock or Flush call.
func (o *Online) Push(s Sample) []Event { return o.tk.Push(s) }

// PushBlock consumes a block of samples in one call, amortizing the
// per-push bookkeeping of the pipeline across the block — the preferred
// shape for callers that already hold buffered samples (file replay,
// network payloads). Events are appended to events (pass a recycled
// buffer, or nil) and the extended slice is returned. The event stream
// is bit-identical to pushing the same samples one at a time.
func (o *Online) PushBlock(samples []Sample, events []Event) []Event {
	return o.tk.PushBlock(samples, events)
}

// Flush decides any cycles still waiting for trailing context; call at
// end of stream.
func (o *Online) Flush() []Event { return o.tk.Flush() }

// Steps returns the running step count.
func (o *Online) Steps() int { return o.tk.Steps() }

// ConditionReport returns the live defect tally of the stream's input
// conditioner, or nil when the tracker was built without
// WithConditioning. Counts cover everything pushed so far.
func (o *Online) ConditionReport() *ConditionReport { return o.tk.ConditionReport() }

// Fitness types: the healthcare layer of the paper's motivation.
type (
	// UserBody carries the anthropometrics the energy model needs.
	UserBody = fitness.UserBody
	// FitnessSummary aggregates a processed trace into activity metrics.
	FitnessSummary = fitness.Summary
	// FitnessInterval is one reporting window of a summary.
	FitnessInterval = fitness.Interval
)

// GaitQuality carries clinical-style gait metrics (cadence, stride
// variability, timing regularity, left/right symmetry).
type GaitQuality = fitness.GaitQuality

// AnalyzeGait computes gait-quality metrics from a processed trace. It
// needs at least minSteps counted steps (<= 0 selects 10).
func AnalyzeGait(res *Result, minSteps int) (*GaitQuality, error) {
	g, err := fitness.AnalyzeGait(res, minSteps)
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	return g, nil
}

// Summarize converts a pipeline result into steps/distance/speed/energy
// metrics over fixed reporting windows (windowS seconds; <= 0 selects
// 60 s). traceDuration bounds the interval grid; pass the trace's
// duration, or <= 0 to derive it from the last counted step.
func Summarize(res *Result, body UserBody, traceDuration, windowS float64) (*FitnessSummary, error) {
	sum, err := fitness.Summarize(res, body, traceDuration, windowS)
	if err != nil {
		return nil, fmt.Errorf("ptrack: %w", err)
	}
	return sum, nil
}

// WriteTraceCSV writes a trace in the library's CSV format.
func WriteTraceCSV(w io.Writer, tr *Trace) error { return trace.WriteCSV(w, tr) }

// ReadTraceCSV parses a trace previously written by WriteTraceCSV. It
// enforces the ingestion contract at load time: data rows require a
// positive #rate metadata row and finite values. Use ReadRawTraceCSV to
// load a defective recording for conditioning.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// ReadRawTraceCSV parses a trace without the load-time validation of
// ReadTraceCSV, so defective recordings (missing #rate, NaN/Inf spikes)
// can be loaded and repaired via WithConditioning or ConditionTrace.
func ReadRawTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSVLenient(r) }

// WriteGroundTruthJSON serialises a recording's ground truth as JSON, for
// storing alongside the trace CSV.
func WriteGroundTruthJSON(w io.Writer, g *GroundTruth) error {
	return trace.WriteGroundTruthJSON(w, g)
}

// ReadGroundTruthJSON parses ground truth written by WriteGroundTruthJSON.
func ReadGroundTruthJSON(r io.Reader) (*GroundTruth, error) {
	return trace.ReadGroundTruthJSON(r)
}
