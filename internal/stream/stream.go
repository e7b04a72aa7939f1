// Package stream provides the online (sample-by-sample) variant of the
// PTrack pipeline. A wearable does not see a finished trace: samples
// arrive one at a time and steps must be reported with bounded latency.
//
// The online tracker buffers a sliding window, projects incrementally,
// and classifies a gait-cycle candidate as soon as its trailing context
// margin is available — the same computation as the batch pipeline in
// internal/core, at a reporting latency of roughly one gait cycle plus
// the margin (≈1.5 s at normal cadence).
//
// The front end does bounded work per sample. The forward half of the
// zero-phase low-pass runs incrementally (one biquad step per sample);
// each scan recomputes the anti-causal backward half only over the
// undecided tail, whose older values it then freezes once they are a
// filter settle length behind the newest sample (see docs/PERF.md for
// the cost model). Peak detection re-scans a bounded window around the
// consumption cursor, and consumed peaks advance the cursor instead of
// triggering a full re-segmentation. All scan scratch is recycled, so
// the steady-state per-sample path performs no heap allocations except
// for the events it hands to the caller.
package stream

import (
	"fmt"
	"math"
	"time"

	"ptrack/internal/condition"
	"ptrack/internal/dsp"
	"ptrack/internal/gaitid"
	"ptrack/internal/imu"
	"ptrack/internal/obs"
	"ptrack/internal/project"
	"ptrack/internal/segment"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
)

// Event is emitted when one gait-cycle candidate has been classified.
type Event struct {
	T          float64 // time of the cycle's end, seconds
	Label      gaitid.Label
	StepsAdded int       // steps credited by this cycle (after confirmation logic)
	Strides    []float64 // per-step stride estimates for the credited steps
	TotalSteps int       // running step count after this event
	Offset     float64   // Eq. (1) diagnostic
}

// Config tunes the online tracker.
type Config struct {
	SampleRate float64 // Hz; required
	Segment    segment.Config
	Identify   gaitid.Config
	// Profile enables stride estimation when non-nil.
	Profile *stride.Config
	// AdaptiveDelta enables the adaptive offset threshold, mirroring
	// core.Config.AdaptiveDelta: δ tracks the widest gap of the recent
	// offset distribution instead of staying fixed.
	AdaptiveDelta bool
	// BufferS bounds the sliding window. Default 12 s; must comfortably
	// exceed the longest cycle plus margins.
	BufferS float64
	// Hooks receives ingest/drop counts, buffer occupancy, per-cycle
	// classifications and event latencies. Nil disables instrumentation.
	// Hook updates are atomic, so one Hooks may be shared by concurrent
	// trackers.
	Hooks *obs.Hooks
	// Condition, when non-nil, routes pushed samples through an online
	// trace conditioner before the DSP front end: out-of-order samples
	// are re-sorted within a bounded window, duplicates and non-finite
	// readings dropped, timestamps resampled onto the tracker's nominal
	// grid with short gaps bridged, and long gaps split the stream
	// (flushing pending decisions and breaking gait streaks). The
	// conditioner's NominalRate is overridden with cfg.SampleRate. Nil
	// assumes a clean fixed-rate input, as before.
	Condition *condition.StreamConfig
}

func (c Config) withDefaults() Config {
	if c.BufferS == 0 {
		c.BufferS = 12
	}
	return c
}

// settleTol is the transient-decay factor past which the provisional tail
// of the backward filter pass is frozen: once a smoothed value sits
// SettleLen(settleTol) samples behind the newest sample, re-running the
// backward pass with any amount of extra future data perturbs it by less
// than one ulp, so the stored value is final.
const settleTol = 1e-24

// Tracker is the online pipeline. Construct with New. Not safe for
// concurrent use.
type Tracker struct {
	cfg Config
	dec gaitid.Decider // per-cycle decision, pending stepping cycles
	// grav primes its gravity estimate on the first sample it projects
	// and refines it as the stream proceeds (a real device carries its
	// estimate over).
	grav *imu.Projector

	// Sliding buffers, all indexed by absolute sample number minus base.
	// The named slices are views into per-signal arenas: compaction
	// advances the shared front offset `off` (a reslice, not a copy) and
	// reclaims arena space only once half of it is dead, so the steady
	// state neither reallocates nor copies whole buffers per scan.
	base     int // absolute index of buffer[0]
	absCount int // total samples consumed
	off      int // dead samples at the front of each arena
	mag      []float64
	vertical []float64
	h1, h2   []float64

	arMag, arVert []float64
	arH1, arH2    []float64
	arFwd, arSmth []float64

	// Incremental zero-phase filter state. fwd is the causal (forward)
	// low-pass of mag, advanced one biquad step per pushed sample; smooth
	// is the zero-phase signal. smooth[:final] is frozen; smooth[final:]
	// is provisional and rewritten by each scan's backward pass. A nil
	// biquad means the cutoff/rate pair is invalid and smoothing degrades
	// to a pass-through, mirroring dsp.FiltFilt.
	fwdBq  *dsp.Biquad
	bwdBq  *dsp.Biquad // scratch state for the anti-causal pass
	settle int         // tail length the backward pass must re-cover
	fwd    []float64
	smooth []float64
	final  int // local index of the frozen/provisional boundary

	// Segmentation sample counts derived at construction.
	scanEvery   int // samples between buffer scans (0.1 s)
	minDistSamp int // peak refractory distance, samples
	lookback    int // peak-window context kept before the cursor, samples

	lastPeak     int // absolute index of the last consumed cycle end peak
	lastCycleLen int
	sinceScan    int // samples since the last buffer scan

	// Scan scratch, recycled across drains.
	pf     dsp.PeakFinder
	cand   []int // candidate peak absolute indices, cursor-consumed
	fit    project.AxisFitter
	antBuf []float64

	// cond is the optional online conditioner in front of the DSP path.
	cond *condition.Streamer

	// Push-path scratch (never snapshotted): evBuf backs the slices Push
	// and Flush return, so uneventful pushes allocate nothing; one is the
	// single-sample window Push feeds through the block ingest kernel;
	// condRun accumulates conditioner output between splits so PushBlock
	// can feed the conditioned stream through the block path too.
	evBuf   []Event
	one     [1]trace.Sample
	condRun []trace.Sample

	// condTime is the wall time PushBlock has spent inside the
	// conditioner (see ConditionTime); diagnostic, never snapshotted.
	condTime time.Duration
}

// BlockSamples is the natural block size for PushBlock: it matches the
// wire layer's PTB1 framing (wire.BinaryFrameSize bytes encode one
// sample; bodies are sent in 64-frame batches) and the hub's drain
// blocks, so a decoded network chunk flows through the tracker as one
// block. PushBlock accepts any length; this is the size the rest
// of the system produces.
const BlockSamples = 64

// New returns an online tracker.
func New(cfg Config) (*Tracker, error) {
	cfg = cfg.withDefaults()
	// `<= 0` alone would pass NaN (every comparison with NaN is false)
	// and produce NaN cycle lengths downstream; require a positive
	// finite rate explicitly.
	if !(cfg.SampleRate > 0) || math.IsInf(cfg.SampleRate, 1) {
		return nil, fmt.Errorf("stream: sample rate must be positive and finite, got %v", cfg.SampleRate)
	}
	cutoff := cfg.Segment.WithDefaults().LowPassCutoffHz
	t := &Tracker{
		cfg: cfg,
		dec: gaitid.Decider{
			ID:         gaitid.NewIdentifier(cfg.Identify, cfg.SampleRate),
			Hooks:      cfg.Hooks,
			SampleRate: cfg.SampleRate,
		},
		grav:     imu.NewProjector(0.04, cfg.SampleRate),
		lastPeak: -1,
		// Derived sample counts truncate to 0 below 10 Hz (0.1 s spans
		// less than one sample period); clamp them to at least one sample
		// so low-rate streams scan every sample instead of never scanning
		// and keep a positive peak refractory distance.
		scanEvery: max(1, int(0.1*cfg.SampleRate)),
	}
	t.minDistSamp = max(1, int(math.Round(segment.MinPeakDistanceS*cfg.SampleRate)))
	if fwd, err := dsp.NewLowPassBiquad(cutoff, cfg.SampleRate); err == nil {
		t.fwdBq = fwd
		t.bwdBq, _ = dsp.NewLowPassBiquad(cutoff, cfg.SampleRate)
		t.settle = fwd.SettleLen(settleTol)
		if t.settle <= 0 {
			// No useful decay bound: never freeze the tail. The backward
			// pass then re-covers the whole buffer, which is still bounded
			// by BufferS.
			t.settle = math.MaxInt / 2
		}
	}
	// Peak context before the cursor: candidate peaks start at the cursor,
	// but their prominence basins and min-distance suppression reach into
	// earlier terrain. A full cycle plus several refractory distances
	// covers both in practice; the equivalence suite pins this against
	// whole-buffer detection on every seed activity.
	t.lookback = max(1, int(math.Round(segment.MaxCycleS*cfg.SampleRate))+4*t.minDistSamp)
	if cfg.AdaptiveDelta {
		t.dec.Adaptive = gaitid.NewAdaptiveThreshold(0)
	}
	if cfg.Profile != nil {
		est, err := stride.New(*cfg.Profile)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		t.dec.Est = est
	}
	if cfg.Condition != nil {
		cc := *cfg.Condition
		cc.NominalRate = cfg.SampleRate
		cond, err := condition.NewStreamer(cc)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		t.cond = cond
	}
	return t, nil
}

// Steps returns the running step count.
func (t *Tracker) Steps() int { return t.dec.ID.Steps() }

// Threshold returns the offset threshold δ currently in use — the fixed
// configuration value, or the adaptive estimate when AdaptiveDelta is on.
func (t *Tracker) Threshold() float64 {
	if t.dec.Adaptive != nil {
		return t.dec.Adaptive.Threshold()
	}
	return t.dec.ID.Threshold()
}

// Push consumes one sample and returns any events that became decidable.
// With Config.Condition set, the sample first passes through the online
// conditioner: it may be buffered for reordering (emitting nothing yet),
// rejected as a duplicate or non-finite reading, or released together
// with earlier samples snapped onto the nominal grid.
//
// The returned slice is backed by a tracker-owned buffer and is valid
// only until the next Push, PushBlock or Flush call; callers that keep
// events must copy them out. Uneventful pushes return nil and perform no
// event allocation.
func (t *Tracker) Push(s trace.Sample) []Event {
	evs := t.evBuf[:0]
	if t.cond == nil {
		evs = t.pushAppend(evs, s)
	} else {
		for _, o := range t.cond.Push(s) {
			if o.Split {
				evs = t.splitResetInto(evs)
			}
			evs = t.pushAppend(evs, o.Sample)
		}
	}
	t.evBuf = evs
	if len(evs) == 0 {
		return nil
	}
	return evs
}

// PushBlock consumes a block of samples — the batch a decoded PTB1 body
// or a drained session queue delivers, conventionally BlockSamples long —
// and appends any events that became decidable to events, returning the
// extended slice (pass events[:0] to recycle a caller-owned buffer
// across blocks, or nil to let the tracker allocate).
//
// The event sequence is bit-for-bit identical to pushing the same
// samples one at a time: blocks are ingested in runs that end exactly
// where the per-sample path would scan, so peak scans, compaction and
// conditioner commits all happen at the same absolute sample positions.
// What the block path amortizes is everything between scans: one fused
// projection + forward-biquad kernel per run instead of per-sample filter
// state traffic, one arena grow, one view refresh and one ingest-hook
// update per run, and no per-push event-slice allocations.
func (t *Tracker) PushBlock(samples []trace.Sample, events []Event) []Event {
	if t.cond == nil {
		return t.pushCleanBlock(events, samples)
	}
	// Conditioned path: commit decisions happen per raw sample inside the
	// streamer (identically to Push), but the released samples are
	// re-blocked between splits and flow through the same block kernel.
	start := time.Now()
	outs := t.cond.PushBlock(samples)
	t.condTime += time.Since(start)
	run := t.condRun[:0]
	for _, o := range outs {
		if o.Split {
			events = t.pushCleanBlock(events, run)
			run = run[:0]
			events = t.splitResetInto(events)
		}
		run = append(run, o.Sample)
	}
	events = t.pushCleanBlock(events, run)
	t.condRun = run[:0]
	return events
}

// pushAppend consumes one conditioned (or trusted-clean) sample,
// appending any decidable events to evs.
func (t *Tracker) pushAppend(evs []Event, s trace.Sample) []Event {
	t.one[0] = s
	return t.pushCleanBlock(evs, t.one[:])
}

// pushCleanBlock feeds a block of clean samples through the ingest
// kernel, scanning at exactly the absolute positions the per-sample path
// would: each run ends where sinceScan reaches the scan interval.
func (t *Tracker) pushCleanBlock(evs []Event, samples []trace.Sample) []Event {
	for i := 0; i < len(samples); {
		run := t.scanEvery - t.sinceScan
		if rem := len(samples) - i; run > rem {
			run = rem
		}
		t.ingestRun(samples[i : i+run])
		i += run
		t.sinceScan += run
		if t.sinceScan < t.scanEvery {
			break // block exhausted before the next scan boundary
		}
		// Peak scanning is amortised over a decimation interval (0.1 s).
		// Decisions are delayed by at most that much on top of the margin
		// latency.
		t.sinceScan = 0
		n0 := len(evs)
		evs = t.drainInto(evs, false)
		t.compact()
		t.observeEvents(evs[n0:])
	}
	return evs
}

// ingestRun appends a run of samples to the sliding window: gravity
// projection and magnitude in one fused pass, then the causal biquad
// advanced across the run as a block. The smooth entries are placeholders
// until the next scan's backward pass rewrites them. Views are refreshed
// lazily by the consumers (drainInto, Snapshot), so a run costs one
// arena extension and one hook update regardless of length.
func (t *Tracker) ingestRun(samples []trace.Sample) {
	k := len(samples)
	if k == 0 {
		return
	}
	n := len(t.arMag)
	t.arMag = extend(t.arMag, k)
	t.arVert = extend(t.arVert, k)
	t.arH1 = extend(t.arH1, k)
	t.arH2 = extend(t.arH2, k)
	t.arFwd = extend(t.arFwd, k)
	t.arSmth = extend(t.arSmth, k)
	mag, vert := t.arMag[n:], t.arVert[n:]
	h1, h2 := t.arH1[n:], t.arH2[n:]
	for i, s := range samples {
		proj := t.grav.Project(s.Accel)
		vert[i], h1[i], h2[i] = proj.Vertical, proj.H1, proj.H2
		mag[i] = s.Accel.Norm() - imu.StandardGravity
	}
	fwd, smth := t.arFwd[n:], t.arSmth[n:]
	if t.fwdBq != nil {
		if t.absCount == 0 {
			t.fwdBq.Seed(mag[0])
		}
		t.fwdBq.ProcessBlockTo(fwd, mag)
		copy(smth, fwd)
	} else {
		copy(fwd, mag)
		copy(smth, mag)
	}
	t.absCount += k
	t.cfg.Hooks.SamplesIngested(k, len(t.arMag)-t.off)
}

// extend grows x by k entries, reusing capacity when available. The new
// entries are uninitialised (callers overwrite them immediately).
func extend(x []float64, k int) []float64 {
	n := len(x)
	if n+k <= cap(x) {
		return x[: n+k : cap(x)]
	}
	c := 2 * cap(x)
	if c < n+k {
		c = n + k
	}
	if c < 64 {
		c = 64
	}
	nx := make([]float64, n+k, c)
	copy(nx, x)
	return nx
}

// Flush reports any cycles that were still waiting for trailing context,
// accepting reduced margins. With conditioning enabled it first releases
// the samples still held in the reorder window. Call at end of stream.
// The returned slice follows Push's ownership rule.
func (t *Tracker) Flush() []Event {
	evs := t.evBuf[:0]
	if t.cond != nil {
		for _, o := range t.cond.Flush() {
			if o.Split {
				evs = t.splitResetInto(evs)
			}
			evs = t.pushAppend(evs, o.Sample)
		}
	}
	n0 := len(evs)
	evs = t.drainInto(evs, true)
	t.observeEvents(evs[n0:])
	t.evBuf = evs
	if len(evs) == 0 {
		return nil
	}
	return evs
}

// ConditionTime returns the cumulative wall time PushBlock has spent
// inside the input conditioner (0 with conditioning disabled). The
// session hub reads its delta across a traced block to give the block's
// tracker.push span a measured "condition" child; the two clock reads
// per block are paid only by conditioned trackers.
func (t *Tracker) ConditionTime() time.Duration { return t.condTime }

// ConditionReport returns the live defect report of the input
// conditioner, or nil when Config.Condition is unset. Counts reflect
// everything pushed so far.
func (t *Tracker) ConditionReport() *condition.Report {
	if t.cond == nil {
		return nil
	}
	return t.cond.Report()
}

// splitResetInto finalises state at a conditioner split (a gap too long
// to bridge): cycles still waiting for trailing context are decided with
// whatever margin is buffered (appended to evs), the stepping
// confirmation streak breaks, and a candidate barrier lands at the split
// so no gait cycle spans the discontinuity.
func (t *Tracker) splitResetInto(evs []Event) []Event {
	n0 := len(evs)
	evs = t.drainInto(evs, true)
	t.observeEvents(evs[n0:])
	t.dec.Break()
	if t.absCount > 0 {
		t.lastPeak = t.absCount - 1
	}
	t.sinceScan = 0
	return evs
}

// observeEvents reports emission latency (cycle end to now, in stream
// time) and credited steps for a batch of events.
func (t *Tracker) observeEvents(events []Event) {
	h := t.cfg.Hooks
	if h == nil || len(events) == 0 {
		return
	}
	now := float64(t.absCount) / t.cfg.SampleRate
	for i := range events {
		h.EventEmitted(now - events[i].T)
		h.AddSteps(events[i].StepsAdded)
	}
}

// refreshTail brings smooth up to date: the anti-causal backward pass is
// recomputed over the provisional tail [final, len) — primed at the
// newest forward sample, exactly as a whole-buffer FiltFilt would be —
// and the frontier then advances to len-settle, freezing every value
// whose backward transient has fully decayed.
func (t *Tracker) refreshTail() {
	n := len(t.fwd)
	if t.final > n {
		t.final = n
	}
	if t.fwdBq == nil {
		// Pass-through smoothing is memoryless: every value is final.
		t.final = n
		return
	}
	if t.final < n {
		t.bwdBq.ApplyBackwardTo(t.smooth[t.final:n], t.fwd[t.final:n])
	}
	if nf := n - t.settle; nf > t.final {
		t.final = nf
	}
}

// drainInto finds decidable gait-cycle candidates in the buffer and
// classifies them, appending events to evs. Peaks are detected once per
// scan over a bounded window ending at the buffer's edge; the triple
// tests then consume candidates through a cursor, mirroring the batch
// segmenter's (p0,p2),(p2,p4),... pairing without re-detection.
func (t *Tracker) drainInto(evs []Event, flush bool) []Event {
	t.refreshViews()
	if len(t.mag) < 8 {
		return evs
	}
	t.refreshTail()

	wstart := 0
	if t.lastPeak >= 0 {
		wstart = t.lastPeak - t.base - t.lookback
		if wstart < 0 {
			wstart = 0
		}
	}
	peaks := t.pf.Find(t.smooth[wstart:], dsp.PeakOptions{
		MinProminence: segment.MinPeakProminence,
		MinDistance:   t.minDistSamp,
	})
	// Candidate peaks at or after the cursor, as absolute indices.
	// Consecutive cycles share their boundary peak, so the cursor peak
	// itself stays in the list.
	t.cand = t.cand[:0]
	for _, p := range peaks {
		if abs := p + wstart + t.base; abs >= t.lastPeak {
			t.cand = append(t.cand, abs)
		}
	}

	ci := 0
	for ci+3 <= len(t.cand) {
		p0, p1, p2 := t.cand[ci], t.cand[ci+1], t.cand[ci+2]
		if !segment.PlausibleCycle(t.smooth, t.base, p0, p1, p2, t.cfg.SampleRate) {
			// Not a plausible cycle: advance one peak, as the batch
			// segmenter does (the next triple starts at p1).
			t.lastPeak = p1
			ci++
			continue
		}
		cycLen := p2 - p0
		margin := int(gaitid.MarginFraction * float64(cycLen))
		// Decide only when the trailing margin is buffered (or flushing).
		have := t.base + len(t.mag)
		if p2+margin >= have {
			if !flush {
				return evs
			}
			margin = have - 1 - p2
			if margin < 0 {
				margin = 0
			}
		}
		leadMargin := margin
		if p0-leadMargin < t.base {
			leadMargin = p0 - t.base
		}
		m := min(leadMargin, margin)
		evs = t.classifyInto(evs, p0, p2, m)
		t.lastPeak = p2
		t.lastCycleLen = cycLen
		ci += 2
	}
	return evs
}

// classifyInto decides the cycle [startAbs, endAbs) over its projected
// window with the given symmetric margin, appending the resulting events
// to evs. The windows are handed to the decider as live subslices of the
// tracker's buffers — identification and stride estimation copy before
// smoothing, so no per-cycle window copies are needed.
func (t *Tracker) classifyInto(evs []Event, startAbs, endAbs, margin int) []Event {
	lo := startAbs - margin - t.base
	hi := endAbs + margin - t.base
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.vertical) {
		hi = len(t.vertical)
	}
	anterior, _, ok := t.fit.Fit(t.antBuf, t.h1[lo:hi], t.h2[lo:hi])
	t.antBuf = anterior
	d := t.dec.Decide(startAbs, endAbs, t.vertical[lo:hi], anterior, ok, margin)
	return appendDecision(evs, d, t.dec.ID.Steps())
}

// appendDecision shapes one decision into events: a confirmation first
// re-emits each back-filled pending cycle with its two credited steps,
// then the cycle itself with its own steps. total is the running step
// count after the decision.
func appendDecision(evs []Event, d gaitid.Decision, total int) []Event {
	for _, p := range d.Backfill {
		evs = append(evs, Event{
			T: p.T, Label: gaitid.LabelStepping,
			StepsAdded: 2, Strides: p.Strides,
			TotalSteps: total,
		})
	}
	return append(evs, Event{
		T:          d.T,
		Label:      d.Label,
		StepsAdded: d.StepsAdded - 2*len(d.Backfill),
		Strides:    d.Strides,
		TotalSteps: total,
		Offset:     d.Offset,
	})
}

// FootprintBytes reports the tracker's resident heap footprint: the six
// sliding-window arenas plus every recycled scratch buffer (scan, peak
// finder, classification windows, event and conditioner-run buffers and
// pending stride slices), by capacity. It is the arena/window half of the
// memory budget — per-tracker fixed-size struct overhead and the
// identifier's internal smoothing scratch are excluded, so treat it as a
// lower bound; the idle-session benchmark's runtime heap delta is the
// inclusive upper bound.
func (t *Tracker) FootprintBytes() int {
	const (
		f64Size     = 8
		eventSize   = 64 // T, Label, StepsAdded, Strides header, TotalSteps, Offset
		sampleSize  = 64 // T, Accel, Gyro, Yaw
		pendingSize = 32 // T + strides header
	)
	b := f64Size * (cap(t.arMag) + cap(t.arVert) + cap(t.arH1) + cap(t.arH2) +
		cap(t.arFwd) + cap(t.arSmth))
	b += 8 * cap(t.cand)
	b += t.fit.ScratchBytes()
	b += f64Size * cap(t.antBuf)
	b += eventSize * cap(t.evBuf)
	b += sampleSize * cap(t.condRun)
	b += t.pf.FootprintBytes()
	b += pendingSize * cap(t.dec.Pending)
	for _, p := range t.dec.Pending {
		b += f64Size * cap(p.Strides)
	}
	return b
}

// refreshViews re-derives the window slices from the arenas. Must run
// after anything that appends to an arena or moves the front offset.
func (t *Tracker) refreshViews() {
	t.mag = t.arMag[t.off:]
	t.vertical = t.arVert[t.off:]
	t.h1 = t.arH1[t.off:]
	t.h2 = t.arH2[t.off:]
	t.fwd = t.arFwd[t.off:]
	t.smooth = t.arSmth[t.off:]
}

// compact drops buffered samples that can no longer participate in any
// future decision. The drop itself just advances the shared arena
// offset; dead arena space is physically reclaimed (one copy, no
// allocation) only when it reaches half the arena, so per-scan
// compaction costs O(1) amortised.
func (t *Tracker) compact() {
	maxLen := int(t.cfg.BufferS * t.cfg.SampleRate)
	if len(t.mag) <= maxLen {
		return
	}
	drop := len(t.mag) - maxLen
	// Never drop past the last consumed peak's context.
	if t.lastPeak >= 0 {
		keepFrom := t.lastPeak - t.base - t.lastCycleLen
		if keepFrom < drop {
			drop = keepFrom
		}
	}
	if drop <= 0 {
		return
	}
	t.cfg.Hooks.SamplesDropped(drop)
	t.base += drop
	t.off += drop
	t.final -= drop
	if t.final < 0 {
		t.final = 0
	}
	if 2*t.off >= len(t.arMag) {
		t.arMag = reclaim(t.arMag, t.off)
		t.arVert = reclaim(t.arVert, t.off)
		t.arH1 = reclaim(t.arH1, t.off)
		t.arH2 = reclaim(t.arH2, t.off)
		t.arFwd = reclaim(t.arFwd, t.off)
		t.arSmth = reclaim(t.arSmth, t.off)
		t.off = 0
	}
	t.refreshViews()
}

// reclaim slides the live suffix x[off:] to the front of x's backing
// array, preserving its capacity for future appends.
func reclaim(x []float64, off int) []float64 {
	n := copy(x, x[off:])
	return x[:n]
}
