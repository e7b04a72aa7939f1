package gaitid

import (
	"time"

	"ptrack/internal/obs"
	"ptrack/internal/stride"
)

// Pending is a stepping cycle awaiting streak confirmation. Its strides
// are estimated when it is pended, so they survive the caller's window
// buffers; the confirmation cycle credits them retroactively (Fig. 4's
// "+6").
type Pending struct {
	T       float64 // cycle end, seconds
	Strides []float64
}

// Decision is the outcome of one gait cycle.
type Decision struct {
	CycleResult         // StepsAdded keeps the identifier's credit (6 on a 3-cycle confirmation)
	T           float64 // cycle end, seconds
	// Strides are this cycle's own credited strides: StepsAdded of them
	// for walking, two for a credited stepping cycle, none when pending,
	// rejected or without an estimator.
	Strides []float64
	// Backfill lists the pending cycles this confirmation credits, two
	// steps each, in stream order. It aliases the decider's pending list
	// and is valid only until the next Decide or Break.
	Backfill []Pending
}

// MarginFraction is the classification context added on each side of a
// gait-cycle candidate, as a fraction of the cycle length; the batch
// pipeline, the online tracker and self-training all window cycles with
// it before ClassifyWindow.
const MarginFraction = 0.25

// Decider runs the per-cycle decision of Fig. 4 — the streak-breaking
// gap rule, the (optionally adaptive) offset threshold δ, identification,
// stepping confirmation with back-fill, and stride estimation — for
// every framing of the pipeline: the batch pipeline, the online tracker
// and its reference oracle all pick a cycle's window and call Decide.
// Construct it as a literal with at least ID and SampleRate set. Not
// safe for concurrent use.
type Decider struct {
	ID         *Identifier
	Adaptive   *AdaptiveThreshold // nil keeps δ fixed
	Est        *stride.Estimator  // nil disables stride estimation
	Hooks      *obs.Hooks         // receives one Cycle call per decision
	SampleRate float64

	// PrevEnd is the end sample of the last decided cycle (0 = none),
	// for the gap rule.
	PrevEnd int
	// Pending holds the stepping cycles awaiting confirmation.
	Pending []Pending

	// IdentifyTime and StrideTime accumulate the time spent in
	// identification and stride estimation; they are measured only
	// when Hooks is non-nil, so the uninstrumented path reads no clock.
	IdentifyTime, StrideTime time.Duration
}

// Break ends the candidate stream's continuity — a conditioner split or
// the start of a new trace: the stepping streak breaks, pending cycles
// are dropped and the gap rule forgets the previous cycle.
func (d *Decider) Break() {
	d.dropStreak()
	d.PrevEnd = 0
}

// dropStreak breaks the stepping streak and forgets its pending cycles.
func (d *Decider) dropStreak() {
	d.ID.BreakStreak()
	d.Pending = d.Pending[:0]
}

// Decide classifies the cycle [start, end) (absolute sample indices)
// from its margin-extended projected window. ok=false means no anterior
// axis could be fitted; such a cycle counts as interference. The window
// slices are only read during the call.
func (d *Decider) Decide(start, end int, vertical, anterior []float64, ok bool, margin int) Decision {
	// A temporal gap in the candidate stream breaks the stepping streak:
	// confirmation requires consecutive gait cycles.
	if d.PrevEnd > 0 && start-d.PrevEnd > (end-start)/4 {
		d.dropStreak()
	}
	d.PrevEnd = end
	dec := Decision{T: float64(end) / d.SampleRate}
	if !ok {
		dec.Label = LabelInterference
		d.dropStreak()
		d.Hooks.Cycle(int(dec.Label), dec.T, 0, 0, false, 0)
		return dec
	}

	if d.Adaptive != nil {
		d.ID.SetThreshold(d.Adaptive.Threshold())
	}
	var t0 time.Time
	if d.Hooks != nil {
		t0 = time.Now()
	}
	dec.CycleResult = d.ID.ClassifyWindow(vertical, anterior, margin)
	if d.Hooks != nil {
		d.IdentifyTime += time.Since(t0)
	}
	if d.Adaptive != nil && dec.OffsetOK {
		d.Adaptive.Observe(dec.Offset)
	}
	d.Hooks.Cycle(int(dec.Label), dec.T, dec.Offset, dec.C, dec.OffsetOK, dec.StepsAdded)

	if d.Hooks != nil {
		t0 = time.Now()
	}
	switch dec.Label {
	case LabelWalking:
		d.Pending = d.Pending[:0]
		dec.Strides = d.strides(vertical, anterior, margin, dec.StepsAdded, true)
	case LabelStepping:
		strides := d.strides(vertical, anterior, margin, 2, false)
		if dec.StepsAdded == 0 {
			d.Pending = append(d.Pending, Pending{T: dec.T, Strides: strides})
			break
		}
		dec.Backfill = d.Pending
		d.Pending = d.Pending[:0]
		dec.Strides = strides
	default:
		d.Pending = d.Pending[:0]
	}
	if d.Hooks != nil {
		d.StrideTime += time.Since(t0)
	}
	return dec
}

// strides estimates up to count per-step strides over one window. When
// the estimator finds fewer steps than counted, the mean of the found
// strides pads the remainder so distance accounting stays consistent.
// The slice is freshly allocated: pending cycles carry it until
// confirmation.
func (d *Decider) strides(vertical, anterior []float64, margin, count int, walking bool) []float64 {
	if d.Est == nil || count <= 0 {
		return nil
	}
	var steps []stride.Step
	if walking {
		steps = d.Est.EstimateWalking(vertical, anterior, margin, d.SampleRate)
	} else {
		steps = d.Est.EstimateStepping(vertical, margin, d.SampleRate)
	}
	if len(steps) > count {
		steps = steps[:count]
	}
	if len(steps) == 0 {
		return nil
	}
	out := make([]float64, 0, count)
	var sum float64
	for _, s := range steps {
		out = append(out, s.Stride)
		sum += s.Stride
	}
	mean := sum / float64(len(out))
	if walking {
		// The forward and backward arm-swing halves of a cycle see the
		// body bounce at opposite phases, biasing their individual
		// estimates in opposite directions; the left and right strides of
		// one cycle are nearly equal, so averaging them cancels the
		// artefact without losing cycle-to-cycle stride variation.
		out = out[:0]
	}
	for len(out) < count {
		out = append(out, mean)
	}
	return out
}
