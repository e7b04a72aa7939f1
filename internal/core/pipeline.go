// Package core assembles the full PTrack pipeline of Fig. 2: the inherited
// front end (segment), acceleration projection (project), gait-type
// identification (gaitid) and stride estimation (stride), producing step
// counts, per-step strides and walked distance from a raw sensor trace.
package core

import (
	"fmt"
	"math"
	"time"

	"ptrack/internal/condition"
	"ptrack/internal/gaitid"
	"ptrack/internal/obs"
	"ptrack/internal/project"
	"ptrack/internal/segment"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// Config assembles the stage configurations. The zero value counts steps
// with all documented defaults but cannot estimate strides (no user
// profile); set Profile to enable the stride estimator.
type Config struct {
	Identify gaitid.Config
	// Profile enables stride estimation when non-nil.
	Profile *stride.Config
	// AdaptiveDelta enables the adaptive offset threshold (the paper's
	// stated future work): δ tracks the widest gap of the recent offset
	// distribution instead of staying fixed.
	AdaptiveDelta bool
	// Hooks receives per-stage timings, per-cycle classifications and
	// step credits. Nil (the default) disables instrumentation entirely;
	// the nil path adds no allocations and no timer reads.
	Hooks *obs.Hooks
}

// CycleOutcome reports one classified gait-cycle candidate.
type CycleOutcome struct {
	Start, End int // sample range of the cycle core
	T          float64
	Label      gaitid.Label
	Offset     float64
	C          float64
	PhaseOK    bool
	StepsAdded int
	Strides    []float64 // per-step stride estimates credited by this cycle
}

// StepEstimate is one counted step with its stride estimate (zero when no
// profile is configured).
type StepEstimate struct {
	T      float64 // time the step was credited, seconds
	Stride float64 // metres; 0 when stride estimation is disabled
}

// Result is the pipeline output for a whole trace.
type Result struct {
	Steps    int            // total counted steps
	Distance float64        // sum of stride estimates of counted steps
	Cycles   []CycleOutcome // per-candidate diagnostics
	StepLog  []StepEstimate // counted steps in order
	// Conditioning carries the trace conditioner's defect report when the
	// input was conditioned before processing (see the facade's
	// WithConditioning); nil when the trace was processed as-is.
	Conditioning *condition.Report
}

// LabelCounts returns how many candidate cycles received each label —
// the Fig. 6(b) breakdown.
func (r *Result) LabelCounts() map[gaitid.Label]int {
	out := make(map[gaitid.Label]int, 3)
	for _, c := range r.Cycles {
		out[c.Label]++
	}
	return out
}

// Decomposer produces the projected series for a trace. The default is
// project.Decompose (low-pass gravity); project.DecomposeFused uses the
// gyro-fused attitude for loosely mounted devices.
type Decomposer func(*trace.Trace) *project.Series

// Pipeline is a reusable instance of the batch pipeline. It owns the
// per-trace scratch state — projection buffers, the identifier's
// smoothing buffers, the decider's pending-stepping list — so processing
// many traces through one Pipeline amortises those allocations to zero.
// Construct with NewPipeline; not safe for concurrent use (the engine
// layer recycles Pipelines across workers via sync.Pool).
type Pipeline struct {
	cfg       Config
	decompose Decomposer // nil selects the buffer-recycling default

	series project.Series
	dec    gaitid.Decider
}

// NewPipeline validates the configuration (notably the stride profile)
// and returns a reusable pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	return newPipeline(cfg, nil)
}

// newPipeline is NewPipeline with a custom projection stage. A nil
// decomposer selects the default gravity projection with buffer
// recycling.
func newPipeline(cfg Config, decompose Decomposer) (*Pipeline, error) {
	p := &Pipeline{cfg: cfg, decompose: decompose}
	p.dec.Hooks = cfg.Hooks
	if cfg.Profile != nil {
		est, err := stride.New(*cfg.Profile)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		p.dec.Est = est
	}
	return p, nil
}

// Process runs the PTrack pipeline over a trace with the default
// projection.
func Process(tr *trace.Trace, cfg Config) (*Result, error) {
	return ProcessWithProjection(tr, cfg, nil)
}

// ProcessWithProjection runs the pipeline with a custom projection stage
// (nil selects the default).
func ProcessWithProjection(tr *trace.Trace, cfg Config, decompose Decomposer) (*Result, error) {
	p, err := newPipeline(cfg, decompose)
	if err != nil {
		return nil, err
	}
	return p.Process(tr)
}

// Process runs the pipeline over one trace, reusing the Pipeline's
// scratch buffers. The returned Result shares nothing with the Pipeline,
// so it stays valid across subsequent calls.
func (p *Pipeline) Process(tr *trace.Trace) (*Result, error) {
	cfg := p.cfg
	// NaN fails every comparison, so `<= 0` alone would let a NaN sample
	// rate through and poison cycle lengths downstream; test positivity
	// and finiteness explicitly.
	if tr == nil || !(tr.SampleRate > 0) || math.IsInf(tr.SampleRate, 1) {
		return nil, fmt.Errorf("core: trace with a positive finite sample rate required")
	}
	h := cfg.Hooks
	var t0 time.Time
	if h != nil {
		h.TraceProcessed()
		t0 = time.Now()
	}
	seg := segment.Segment(tr, segment.Config{})
	if h != nil {
		h.StageDone(obs.StageSegment, time.Since(t0))
		t0 = time.Now()
	}
	series := &p.series
	if p.decompose != nil {
		series = p.decompose(tr)
	} else {
		project.DecomposeInto(series, tr)
	}
	if h != nil {
		h.StageDone(obs.StageProject, time.Since(t0))
	}
	dec := &p.dec
	if dec.ID == nil || dec.SampleRate != tr.SampleRate {
		dec.ID = gaitid.NewIdentifier(cfg.Identify, tr.SampleRate)
		dec.SampleRate = tr.SampleRate
	} else {
		dec.ID.Reset()
	}
	dec.Break()
	dec.Adaptive = nil
	if cfg.AdaptiveDelta {
		dec.Adaptive = gaitid.NewAdaptiveThreshold(0)
	}
	dec.IdentifyTime, dec.StrideTime = 0, 0

	res := &Result{}
	for _, cyc := range seg.Cycles {
		// Context on both sides of the cycle, shrunk symmetrically to
		// fit inside the trace.
		margin := int(gaitid.MarginFraction * float64(cyc.Len()))
		if margin > cyc.Start {
			margin = cyc.Start
		}
		if over := cyc.End + margin - len(tr.Samples); over > 0 {
			margin -= over
		}
		w := series.ProjectWindow(cyc.Start-margin, cyc.End+margin)
		d := dec.Decide(cyc.Start, cyc.End, w.Vertical, w.Anterior, w.OK, margin)
		out := CycleOutcome{
			Start: cyc.Start, End: cyc.End, T: d.T,
			Label:  d.Label,
			Offset: d.Offset, C: d.C, PhaseOK: d.PhaseOK,
			StepsAdded: d.StepsAdded,
			Strides:    d.Strides,
		}
		// A confirmation credits the pending streak first (Fig. 4's
		// "+6"), then this cycle's own steps.
		for _, b := range d.Backfill {
			res.logSteps(b.T, b.Strides, 2)
		}
		res.logSteps(d.T, d.Strides, d.StepsAdded-2*len(d.Backfill))
		res.Cycles = append(res.Cycles, out)
	}
	res.Steps = dec.ID.Steps()
	if h != nil {
		h.StageDone(obs.StageIdentify, dec.IdentifyTime)
		h.StageDone(obs.StageStride, dec.StrideTime)
		h.AddSteps(res.Steps)
	}
	return res, nil
}

// logSteps logs n counted steps ending at t with their strides (0 each
// when stride estimation is off).
func (r *Result) logSteps(t float64, strides []float64, n int) {
	for i := 0; i < n; i++ {
		s := 0.0
		if i < len(strides) {
			s = strides[i]
		}
		r.Distance += s
		r.StepLog = append(r.StepLog, StepEstimate{T: t, Stride: s})
	}
}
