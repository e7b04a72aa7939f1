package gaitid

import (
	"ptrack/internal/dsp"
)

// Label is the per-cycle gait classification (Fig. 6(b)'s breakdown).
type Label int

// Cycle labels. Interference covers everything that is neither walking nor
// confirmed stepping ("Others" in the paper's breakdown).
const (
	LabelInterference Label = iota + 1
	LabelWalking
	LabelStepping
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case LabelWalking:
		return "walking"
	case LabelStepping:
		return "stepping"
	case LabelInterference:
		return "interference"
	default:
		return "unlabeled"
	}
}

// Config tunes the identifier. Zero values select the documented defaults.
type Config struct {
	// OffsetThreshold is δ of §III-B1. Default 0.0325 (the paper's
	// empirical setting).
	OffsetThreshold float64
	// ConfirmCount is how many consecutive qualifying cycles confirm
	// stepping. Default 3 (Fig. 4).
	ConfirmCount int
}

// The identifier's fixed signal-analysis parameters.
const (
	relProminence  = 0.12 // critical-point prominence floor, fraction of the window's signal range
	smoothCutoffHz = 4.5  // zero-phase low-pass of both directions before critical-point analysis, Hz
	minPhaseCorr   = 0.4  // minimum cross-correlation magnitude for the quarter-period phase test
	phaseTolerance = 0.5  // accepted best-lag deviation, fraction of the ideal quarter-period lag
)

func (c Config) withDefaults() Config {
	if c.OffsetThreshold == 0 {
		c.OffsetThreshold = 0.0325
	}
	if c.ConfirmCount == 0 {
		c.ConfirmCount = 3
	}
	return c
}

// CycleResult reports one classified gait-cycle candidate.
type CycleResult struct {
	Label      Label
	Offset     float64 // Eq. (1) aggregate offset
	OffsetOK   bool    // whether the offset could be computed
	C          float64 // half-cycle auto-correlation of the anterior signal
	PhaseOK    bool    // quarter-period phase-difference test outcome
	StepsAdded int     // steps credited to the counter by this cycle
}

// Identifier is the Fig. 4 state machine. The zero value is NOT ready;
// use NewIdentifier. It is not safe for concurrent use.
type Identifier struct {
	cfg         Config
	sampleRate  float64
	consecutive int // consecutive stepping-qualifying cycles, not yet all credited
	confirmed   bool
	steps       int

	// Smoothing scratch, reused across ClassifyWindow calls: one biquad
	// (nil when the cutoff/rate pair is invalid — smoothing then degrades
	// to a copy, matching dsp.FiltFilt) and the two filtered windows.
	bq         *dsp.Biquad
	vBuf, aBuf []float64
	// Correlation kernel scratch: the half-cycle C statistic and the
	// quarter-period phase sweep both run on prefix-sum moments instead of
	// re-deriving Pearson means and variances at every lag.
	ck dsp.LagCorrelator
	// Critical-point scratch: peak finders and merge buffers behind the
	// offset metric, recycled so per-cycle classification is
	// allocation-free at steady state.
	sc cpScratch
}

// NewIdentifier returns an identifier for signals at the given sample
// rate.
func NewIdentifier(cfg Config, sampleRate float64) *Identifier {
	cfg = cfg.withDefaults()
	bq, err := dsp.NewLowPassBiquad(smoothCutoffHz, sampleRate)
	if err != nil {
		bq = nil
	}
	return &Identifier{cfg: cfg, sampleRate: sampleRate, bq: bq}
}

// Steps returns the accumulated step count.
func (id *Identifier) Steps() int { return id.steps }

// SetThreshold replaces the offset threshold δ, for adaptive tuning (see
// AdaptiveThreshold).
func (id *Identifier) SetThreshold(delta float64) {
	if delta > 0 {
		id.cfg.OffsetThreshold = delta
	}
}

// Threshold returns the current offset threshold δ.
func (id *Identifier) Threshold() float64 { return id.cfg.OffsetThreshold }

// Reset clears the step count and the stepping-confirmation state.
func (id *Identifier) Reset() {
	id.consecutive = 0
	id.confirmed = false
	id.steps = 0
}

// State is the identifier's mutable state — everything Fig. 4's machine
// carries between cycles — for snapshotting a mid-stream identifier.
type State struct {
	Steps       int
	Consecutive int
	Confirmed   bool
	// Threshold is the live δ (it drifts from the configured value under
	// adaptive tuning via SetThreshold).
	Threshold float64
}

// State captures the identifier's mutable state.
func (id *Identifier) State() State {
	return State{
		Steps:       id.steps,
		Consecutive: id.consecutive,
		Confirmed:   id.confirmed,
		Threshold:   id.cfg.OffsetThreshold,
	}
}

// SetState restores state captured by State into an identifier built
// with the same configuration and sample rate.
func (id *Identifier) SetState(s State) {
	id.steps = s.Steps
	id.consecutive = s.Consecutive
	id.confirmed = s.Confirmed
	if s.Threshold > 0 {
		id.cfg.OffsetThreshold = s.Threshold
	}
}

// Classify consumes one projected gait-cycle candidate (vertical and
// anterior series of equal length) and updates the step counter following
// Fig. 4:
//
//	offset > δ            → walking, +2 steps
//	else C > 0 and fixed quarter-period phase difference:
//	    on the ConfirmCount-th consecutive such cycle → +2·ConfirmCount
//	    on later consecutive cycles                  → +2
//	else                  → interference, +0 (resets the streak)
func (id *Identifier) Classify(vertical, anterior []float64) CycleResult {
	return id.ClassifyWindow(vertical, anterior, 0)
}

// ClassifyWindow is Classify over a margin-extended window: the slices
// carry `margin` context samples on each side of the gait-cycle core.
// Context prevents boundary artefacts in the offset metric (see
// OffsetMetricMargin); the C and phase tests run on the core alone.
func (id *Identifier) ClassifyWindow(vertical, anterior []float64, margin int) CycleResult {
	res := CycleResult{Label: LabelInterference}
	if len(vertical) < 8 || len(anterior) != len(vertical) {
		id.breakStreak()
		return res
	}
	if margin < 0 || 2*margin >= len(vertical)-4 {
		margin = 0
	}
	// Smooth into the identifier's scratch: the filtered windows are fully
	// consumed before the next ClassifyWindow call, so the buffers recycle.
	id.vBuf = dsp.FiltFiltTo(id.vBuf, vertical, id.bq)
	id.aBuf = dsp.FiltFiltTo(id.aBuf, anterior, id.bq)
	v, aFull := id.vBuf, id.aBuf
	a := aFull[margin : len(aFull)-margin]
	vCore := v[margin : len(v)-margin]

	res.Offset, res.OffsetOK = id.sc.offsetMetricMargin(v, aFull, margin)
	if res.OffsetOK && res.Offset > id.cfg.OffsetThreshold {
		res.Label = LabelWalking
		res.StepsAdded = 2
		id.steps += 2
		id.breakStreak()
		return res
	}

	id.ck.ResetAuto(a)
	res.C, _ = id.ck.At(len(a) / 2) // half-cycle auto-correlation C
	res.PhaseOK = id.phaseDifferenceOK(vCore, a)
	if res.C > 0 && res.PhaseOK {
		res.Label = LabelStepping
		id.consecutive++
		switch {
		case id.confirmed:
			res.StepsAdded = 2
		case id.consecutive >= id.cfg.ConfirmCount:
			// Credit the whole pending streak at once (Fig. 4's "+6").
			res.StepsAdded = 2 * id.consecutive
			id.confirmed = true
		}
		id.steps += res.StepsAdded
		return res
	}

	res.Label = LabelInterference
	id.breakStreak()
	return res
}

func (id *Identifier) breakStreak() {
	id.consecutive = 0
	id.confirmed = false
}

// BreakStreak resets the stepping-confirmation streak. Callers must invoke
// it whenever the candidate stream is not temporally contiguous (a silent
// gap between cycles): "3 times consecutively" in Fig. 4 means consecutive
// *gait cycles*, and sporadic gestures separated by pauses must not
// accumulate a streak across the silence.
func (id *Identifier) BreakStreak() { id.breakStreak() }

// phaseDifferenceOK tests Kim et al.'s fixed quarter-period phase
// difference between the body's vertical and anterior accelerations
// (§III-B1, second observation). Both signals oscillate at the step
// frequency — half the gait cycle — so the expected cross-correlation
// peak sits at ±(cycle length)/8. Rigid gestures either correlate best at
// zero lag (single-axis motion projected twice) or barely correlate at
// all (vertical at twice the anterior frequency).
func (id *Identifier) phaseDifferenceOK(vertical, anterior []float64) bool {
	n := len(vertical)
	quarter := n / 8
	if quarter < 2 {
		return false
	}
	maxLag := n / 4
	id.ck.Reset(vertical, anterior)
	bestLag, bestCorr := id.ck.BestLag(maxLag)
	if absF(bestCorr) < minPhaseCorr {
		return false
	}
	lag := bestLag
	if lag < 0 {
		lag = -lag
	}
	tol := phaseTolerance * float64(quarter)
	d := float64(lag) - float64(quarter)
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
