package condition

import (
	"fmt"
	"math"

	"ptrack/internal/trace"
)

// StreamConfig tunes the online conditioner. The reorder window is not
// a setting: it is derived from the nominal rate (see reorderWindow).
type StreamConfig struct {
	Config
}

// reorderWindow is how many raw samples the Streamer buffers
// (time-sorted) before the oldest is committed to the output grid — the
// bound on both tolerated reordering and added latency: max(8, rate/8)
// samples, ~125 ms at 100 Hz.
func reorderWindow(rate float64) int {
	return max(8, int(rate/8))
}

// Out is one conditioned sample. Split marks that an unbridged gap
// separates it from the previously emitted sample: downstream
// per-segment state (gait streaks, pending cycles) should reset before
// consuming it.
type Out struct {
	Sample trace.Sample
	Split  bool
}

// grid is the commit path both conditioners share: it folds final,
// time-ordered, deduplicated raw samples onto the uniform output grid.
// Condition feeds it the sorted trace; the Streamer feeds it the oldest
// sample of its reorder window.
type grid struct {
	rate, dt, tol float64
	hooks         Hooks
	rep           Report

	havePrev  bool
	prev      trace.Sample // last committed raw sample
	gridT0    float64      // grid anchor (segment start)
	gridN     int          // next grid index to emit
	committed int          // raw samples committed so far
	clipRun   int

	out []Out // committed output, appended by emit
}

func newGrid(rate float64, h Hooks) grid {
	dt := 1 / rate
	return grid{rate: rate, dt: dt, tol: jitterTol * dt, hooks: h}
}

// commit folds ahead[0], a raw sample now final (nothing earlier can
// arrive), into the output grid. ahead[1], if present, is the sample
// that will be committed next: when both fall within jitterTol of one
// grid point, the nearer one takes it, the earlier one on a tie.
// Nothing is synthesised past the last committed sample.
func (g *grid) commit(ahead []trace.Sample) {
	c := &ahead[0]
	nextT := math.Inf(1)
	if len(ahead) > 1 {
		nextT = ahead[1].T
	}
	g.committed++
	if !g.havePrev {
		g.havePrev = true
		g.start(c, false)
		return
	}
	gap := c.T - g.prev.T
	if gap > 1.5*g.dt {
		if gap > maxGapS || !g.canBridge(c.T) {
			g.hole(gap, false)
			g.start(c, true)
			return
		}
		g.hole(gap, true)
	}
	used := false
	for {
		t := g.gridT0 + float64(g.gridN)*g.dt
		if t > c.T+g.tol {
			break
		}
		if d := math.Abs(c.T - t); d <= g.tol {
			if math.Abs(nextT-t) < d {
				break // the next sample is nearer and takes this point
			}
			g.emit(c, t, false)
			used = true
		} else {
			in := lerpSample(&g.prev, c, (t-g.prev.T)/(c.T-g.prev.T))
			g.emit(&in, t, false)
			g.rep.Interpolated++
			g.rep.Resampled = true
		}
		g.gridN++
	}
	if !used {
		g.rep.Resampled = true
	}
	g.prev = *c
}

// canBridge reports whether filling the hole up to a sample at time t
// keeps the output within the amplification bound: samples emitted plus
// the fill at most maxAmplify per raw sample committed, plus one
// maxGapS hole's worth.
func (g *grid) canBridge(t float64) bool {
	fill := math.Floor((t+g.tol-g.gridT0)*g.rate) - float64(g.gridN) + 1
	return float64(g.rep.Output)+fill <= maxAmplify*float64(g.committed)+maxGapS*g.rate
}

// start anchors a new segment's grid at c and emits it.
func (g *grid) start(c *trace.Sample, split bool) {
	if split {
		g.endClipRun()
	}
	g.prev = *c
	g.gridT0 = c.T
	g.gridN = 1
	g.emit(c, c.T, split)
}

// hole records one gap above 1.5 sample periods, bridged or split.
func (g *grid) hole(gap float64, bridged bool) {
	if bridged {
		g.rep.GapsBridged++
		g.defect("gap_bridged")
	} else {
		g.rep.GapsSplit++
		g.defect("gap_split")
	}
	g.rep.Gaps = append(g.rep.Gaps, Gap{Start: g.prev.T, Duration: gap, Bridged: bridged})
	if g.hooks != nil {
		g.hooks.ConditionGap(gap)
	}
}

// emit appends s, stamped at grid time t, to the output.
func (g *grid) emit(s *trace.Sample, t float64, split bool) {
	g.clip(s)
	g.rep.Output++
	g.out = append(g.out, Out{Sample: *s, Split: split})
	g.out[len(g.out)-1].Sample.T = t
}

// clip extends or ends the running saturated run with one output sample.
func (g *grid) clip(s *trace.Sample) {
	if clipped(s) {
		g.clipRun++
	} else if g.clipRun > 0 {
		g.endClipRun()
	}
}

func (g *grid) endClipRun() {
	if g.clipRun >= clipRunMin {
		g.rep.ClippedSamples += g.clipRun
		g.rep.ClippedRuns++
		g.defect("clipped_run")
	}
	g.clipRun = 0
}

func (g *grid) defect(kind string) {
	if g.hooks != nil {
		g.hooks.ConditionDefect(kind, 1)
	}
}

// Streamer is the online conditioner: push raw samples one at a time
// and receive the clean fixed-rate stream with bounded latency (the
// reorder window) and O(1) amortised work per sample. Unlike the batch
// conditioner it cannot estimate the input rate — the nominal rate is
// the session's declared contract — but it applies the same ordering,
// deduplication and non-finite rejection, and commits through the same
// grid path as Condition. A clean on-grid input stream passes through
// bit-identically. Not safe for concurrent use.
type Streamer struct {
	grid
	window int
	pend   []trace.Sample // reorder buffer, ascending by T
}

// NewStreamer builds an online conditioner emitting at cfg.NominalRate.
func NewStreamer(cfg StreamConfig) (*Streamer, error) {
	if !usableRate(cfg.NominalRate) {
		return nil, fmt.Errorf("condition: nominal rate must be in (0, %d] Hz, got %v", maxRate, cfg.NominalRate)
	}
	return &Streamer{grid: newGrid(cfg.NominalRate, cfg.Hooks), window: reorderWindow(cfg.NominalRate)}, nil
}

// Report returns the running defect report. The pointee is live — it
// keeps updating with further pushes.
func (s *Streamer) Report() *Report {
	s.rep.NominalRate = s.rate
	s.rep.EffectiveRate = s.rate
	s.rep.Clean = s.rep.Defects() == 0 && !s.rep.Resampled
	return &s.rep
}

// Push ingests one raw sample and returns any conditioned samples that
// became final. The returned slice is reused by the next call.
func (s *Streamer) Push(raw trace.Sample) []Out {
	s.out = s.out[:0]
	if !s.ingest(raw) {
		return nil
	}
	return s.out
}

// PushBlock ingests a block of raw samples and returns the conditioned
// samples that became final across the whole block, in commit order —
// exactly the concatenation of what per-sample Push calls would emit.
// One output-buffer reset and one call boundary serve the whole block,
// which is what the tracker's block path needs to keep conditioned
// streams on the amortized path. The returned slice is reused by the
// next Push or PushBlock call.
func (s *Streamer) PushBlock(raw []trace.Sample) []Out {
	s.out = s.out[:0]
	for _, r := range raw {
		s.ingest(r)
	}
	return s.out
}

// ingest folds one raw sample into the reorder window, appending any
// committed outputs to s.out. It reports whether the sample entered the
// window (false for rejects, which emit nothing).
func (s *Streamer) ingest(raw trace.Sample) bool {
	s.rep.Input++
	if !finiteSample(raw) {
		s.defect("non_finite")
		s.rep.NonFinite++
		return false
	}
	if s.havePrev && raw.T <= s.prev.T && (len(s.pend) == 0 || raw.T < s.pend[0].T) {
		// Arrived after its timeline position was already committed:
		// beyond the reorder window's reach.
		if raw.T == s.prev.T {
			s.defect("duplicate")
			s.rep.Duplicates++
		} else {
			s.defect("out_of_order")
			s.defect("rejected")
			s.rep.OutOfOrder++
			s.rep.Rejected++
		}
		return false
	}
	// Insert into the sorted reorder buffer.
	i := len(s.pend)
	for i > 0 && s.pend[i-1].T > raw.T {
		i--
	}
	if i > 0 && s.pend[i-1].T == raw.T {
		s.defect("duplicate")
		s.rep.Duplicates++
		return false
	}
	if i < len(s.pend) {
		s.defect("out_of_order")
		s.rep.OutOfOrder++
	}
	s.pend = append(s.pend, trace.Sample{})
	copy(s.pend[i+1:], s.pend[i:])
	s.pend[i] = raw
	for len(s.pend) > s.window {
		s.commit(s.pend)
		s.pend = s.pend[:copy(s.pend, s.pend[1:])]
	}
	return true
}

// Flush commits every buffered sample. Call at end of stream; the
// streamer stays usable (a subsequent Push starts from the same grid).
func (s *Streamer) Flush() []Out {
	s.out = s.out[:0]
	for i := range s.pend {
		s.commit(s.pend[i:])
	}
	s.pend = s.pend[:0]
	return s.out
}
