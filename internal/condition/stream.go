package condition

import (
	"fmt"
	"math"

	"ptrack/internal/trace"
)

// StreamConfig tunes the online conditioner.
type StreamConfig struct {
	Config
	// ReorderWindow is how many raw samples are buffered (time-sorted)
	// before the oldest is committed to the output grid — the bound on
	// both tolerated reordering and added latency. Default
	// max(8, NominalRate/8) samples (~125 ms at 100 Hz).
	ReorderWindow int
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.ReorderWindow == 0 {
		c.ReorderWindow = int(c.NominalRate / 8)
		if c.ReorderWindow < 8 {
			c.ReorderWindow = 8
		}
	}
	return c
}

// Out is one conditioned sample. Split marks that a long gap separates
// it from the previously emitted sample: downstream per-segment state
// (gait streaks, pending cycles) should reset before consuming it.
type Out struct {
	Sample trace.Sample
	Split  bool
}

// Streamer is the online conditioner: push raw samples one at a time
// and receive the clean fixed-rate stream with bounded latency (the
// reorder window) and O(1) amortised work per sample. Unlike the batch
// conditioner it cannot estimate the input rate — the nominal rate is
// the session's declared contract — but it applies the same ordering,
// deduplication, non-finite rejection, grid resampling and gap
// bridging/splitting. A clean on-grid input stream passes through
// bit-identically. Not safe for concurrent use.
type Streamer struct {
	cfg StreamConfig
	dt  float64
	tol float64
	rep Report

	pend     []trace.Sample // reorder buffer, ascending by T
	havePrev bool
	prev     trace.Sample // last committed raw sample
	gridT0   float64      // grid anchor (segment start)
	gridN    int          // next grid index to emit

	out     []Out // reused across pushes
	clipRun int
}

// NewStreamer builds an online conditioner emitting at cfg.NominalRate.
func NewStreamer(cfg StreamConfig) (*Streamer, error) {
	cfg = cfg.withDefaults()
	if !(cfg.NominalRate > 0) || math.IsInf(cfg.NominalRate, 1) {
		return nil, fmt.Errorf("condition: nominal rate must be positive and finite, got %v", cfg.NominalRate)
	}
	dt := 1 / cfg.NominalRate
	return &Streamer{cfg: cfg, dt: dt, tol: jitterTol * dt}, nil
}

// Report returns the running defect report. The pointee is live — it
// keeps updating with further pushes.
func (s *Streamer) Report() *Report {
	s.rep.NominalRate = s.cfg.NominalRate
	s.rep.EffectiveRate = s.cfg.NominalRate
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
	for len(s.pend) > s.cfg.ReorderWindow {
		s.commit(s.pend[0])
		s.pend = s.pend[:copy(s.pend, s.pend[1:])]
	}
	return true
}

// Flush commits every buffered sample. Call at end of stream; the
// streamer stays usable (a subsequent Push starts from the same grid).
func (s *Streamer) Flush() []Out {
	s.out = s.out[:0]
	for _, c := range s.pend {
		s.commit(c)
	}
	s.pend = s.pend[:0]
	return s.out
}

// commit folds one raw sample (now final: nothing earlier can arrive)
// into the output grid.
func (s *Streamer) commit(c trace.Sample) {
	if !s.havePrev {
		s.havePrev = true
		s.prev = c
		s.gridT0 = c.T
		s.gridN = 1
		s.emit(c, false)
		return
	}
	gap := c.T - s.prev.T
	if gap > maxGapS {
		s.rep.GapsSplit++
		s.rep.Gaps = append(s.rep.Gaps, Gap{Start: s.prev.T, Duration: gap})
		s.defect("gap_split")
		if s.cfg.Hooks != nil {
			s.cfg.Hooks.ConditionGap(gap)
		}
		s.prev = c
		s.gridT0 = c.T
		s.gridN = 1
		s.emit(c, true)
		return
	}
	if gap > 1.5*s.dt {
		s.rep.GapsBridged++
		s.rep.Gaps = append(s.rep.Gaps, Gap{Start: s.prev.T, Duration: gap, Bridged: true})
		s.defect("gap_bridged")
		if s.cfg.Hooks != nil {
			s.cfg.Hooks.ConditionGap(gap)
		}
	}
	for {
		t := s.gridT0 + float64(s.gridN)*s.dt
		if t > c.T+s.tol {
			break
		}
		var out trace.Sample
		if math.Abs(c.T-t) <= s.tol {
			out = c
		} else {
			f := (t - s.prev.T) / (c.T - s.prev.T)
			out = lerpSample(s.prev, c, f)
			s.rep.Interpolated++
			s.rep.Resampled = true
		}
		out.T = t
		s.gridN++
		s.emit(out, false)
	}
	s.prev = c
}

func (s *Streamer) emit(out trace.Sample, split bool) {
	if clipped(out) {
		s.clipRun++
	} else {
		s.endClipRun()
	}
	s.rep.Output++
	s.out = append(s.out, Out{Sample: out, Split: split})
}

func (s *Streamer) endClipRun() {
	if s.clipRun >= clipRunMin {
		s.rep.ClippedSamples += s.clipRun
		s.rep.ClippedRuns++
		s.defect("clipped_run")
	}
	s.clipRun = 0
}

func (s *Streamer) defect(kind string) {
	if s.cfg.Hooks != nil {
		s.cfg.Hooks.ConditionDefect(kind, 1)
	}
}
