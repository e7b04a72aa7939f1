package stream

import (
	"fmt"

	"ptrack/internal/gaitid"
	"ptrack/internal/statecodec"
	"ptrack/internal/vecmath"
)

// snapVersion is the Tracker snapshot format revision. Bump on any
// layout change so stale blobs fail with statecodec.ErrVersion.
const snapVersion = 1

// Snapshot appends the tracker's complete mutable state as a versioned,
// CRC-sealed binary blob: the zero-phase filter seeds and frozen/
// provisional frontier, the peak-consumption cursor and its lookback
// context, the live arena tails, the step and confirmation counters,
// the gravity estimate, and (when conditioning is on) the conditioner's
// reorder window — everything a fresh tracker built from the same
// Config needs to continue the stream bit-identically. It appends to
// dst (pass nil, or a recycled buffer for alloc-free checkpoints).
//
// Snapshot must be called by the goroutine that owns the tracker, at a
// sample boundary (between Push calls).
func (t *Tracker) Snapshot(dst []byte) []byte {
	// Views are refreshed lazily by the scan path; a snapshot between
	// pushes must see the samples ingested since the last scan.
	t.refreshViews()
	e := statecodec.NewEnc(dst, snapVersion)
	e.F64(t.cfg.SampleRate)

	// Projection front end.
	// Format v1 stores the estimator's primed bit twice; the duplicate
	// keeps existing snapshots readable without a version bump.
	grav, primed := t.grav.State()
	e.Bool(primed)
	e.Bool(primed)
	e.F64(grav.X)
	e.F64(grav.Y)
	e.F64(grav.Z)

	// Window geometry: absolute indices, then the live (post-offset)
	// arena tails. Restore rebuilds the arenas at offset zero, so `off`
	// itself — pure memory layout — is not part of the state.
	e.Int(t.base)
	e.Int(t.absCount)
	e.Uint(uint64(len(t.mag)))
	for _, s := range [][]float64{t.mag, t.vertical, t.h1, t.h2, t.fwd, t.smooth} {
		for _, v := range s {
			e.F64(v)
		}
	}

	// Incremental zero-phase filter.
	e.Bool(t.fwdBq != nil)
	if t.fwdBq != nil {
		x1, x2, y1, y2 := t.fwdBq.State()
		e.F64(x1)
		e.F64(x2)
		e.F64(y1)
		e.F64(y2)
	}
	e.Int(t.final)

	// Segmentation cursors.
	e.Int(t.lastPeak)
	e.Int(t.lastCycleLen)
	e.Int(t.dec.PrevEnd)
	e.Int(t.sinceScan)

	// Pending stepping cycles awaiting confirmation.
	e.Uint(uint64(len(t.dec.Pending)))
	for _, p := range t.dec.Pending {
		e.F64(p.T)
		e.F64s(p.Strides)
	}

	e.F64(t.fit.Last.X)
	e.F64(t.fit.Last.Y)
	e.F64(t.fit.Last.Z)

	// Identification state machine.
	ids := t.dec.ID.State()
	e.Int(ids.Steps)
	e.Int(ids.Consecutive)
	e.Bool(ids.Confirmed)
	e.F64(ids.Threshold)

	// Adaptive threshold history ring.
	e.Bool(t.dec.Adaptive != nil)
	if t.dec.Adaptive != nil {
		hist, next, full := t.dec.Adaptive.State()
		e.F64s(hist)
		e.Int(next)
		e.Bool(full)
	}

	// Input conditioner (nested blob with its own version and CRC).
	e.Bool(t.cond != nil)
	if t.cond != nil {
		e.Bytes(t.cond.Snapshot(nil))
	}
	return e.Finish()
}

// Restore replaces the tracker's state with a snapshot taken by
// Snapshot from a tracker built with the same Config. It is
// all-or-nothing: on any error — corruption, a different format
// version, or a configuration mismatch (sample rate, conditioning or
// adaptive-threshold presence) — the receiver is left unchanged, so a
// failed restore still leaves a usable fresh tracker.
//
// A restored tracker emits exactly the events the snapshotted tracker
// would have emitted for the same subsequent pushes.
func (t *Tracker) Restore(blob []byte) error {
	d, err := statecodec.NewDec(blob, snapVersion)
	if err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	if rate := d.F64(); rate != t.cfg.SampleRate {
		return fmt.Errorf("stream: restore: snapshot is for %v Hz, tracker runs at %v Hz", rate, t.cfg.SampleRate)
	}

	gravPrimed := d.Bool()
	d.Bool() // the second copy of the primed bit; see Snapshot
	grav := vecmath.V3(d.F64(), d.F64(), d.F64())

	base := d.Int()
	absCount := d.Int()
	winLen := d.Uint()
	// Six arenas of winLen float64s must still fit in the blob: reject
	// an implausible length before allocating for it (the CRC makes this
	// unreachable for honest blobs, but allocation guards stay cheap).
	if winLen > uint64(d.Remaining())/(6*8) {
		return fmt.Errorf("stream: restore: %w: window of %d samples exceeds blob size", statecodec.ErrCorrupt, winLen)
	}
	arenas := make([][]float64, 6)
	for i := range arenas {
		arenas[i] = make([]float64, winLen)
		for j := range arenas[i] {
			arenas[i][j] = d.F64()
		}
	}

	hasBq := d.Bool()
	if hasBq != (t.fwdBq != nil) {
		return fmt.Errorf("stream: restore: snapshot and tracker disagree on filter validity (cutoff/rate mismatch)")
	}
	var bx1, bx2, by1, by2 float64
	if hasBq {
		bx1, bx2, by1, by2 = d.F64(), d.F64(), d.F64(), d.F64()
	}
	final := d.Int()

	lastPeak := d.Int()
	lastCycleLen := d.Int()
	prevEnd := d.Int()
	sinceScan := d.Int()

	nPending := d.Uint()
	if nPending > uint64(d.Remaining())/8 {
		return fmt.Errorf("stream: restore: %w: pending-cycle count %d exceeds blob size", statecodec.ErrCorrupt, nPending)
	}
	pending := make([]gaitid.Pending, nPending)
	for i := range pending {
		pending[i].T = d.F64()
		pending[i].Strides = d.F64s(nil)
	}

	lastAxis := vecmath.V3(d.F64(), d.F64(), d.F64())

	var ids struct {
		steps, consecutive int
		confirmed          bool
		threshold          float64
	}
	ids.steps = d.Int()
	ids.consecutive = d.Int()
	ids.confirmed = d.Bool()
	ids.threshold = d.F64()

	hasAdaptive := d.Bool()
	if hasAdaptive != (t.dec.Adaptive != nil) {
		return fmt.Errorf("stream: restore: snapshot and tracker disagree on adaptive thresholding")
	}
	var adHist []float64
	var adNext int
	var adFull bool
	if hasAdaptive {
		adHist = d.F64s(nil)
		adNext = d.Int()
		adFull = d.Bool()
	}

	hasCond := d.Bool()
	if hasCond != (t.cond != nil) {
		return fmt.Errorf("stream: restore: snapshot and tracker disagree on input conditioning")
	}
	var condBlob []byte
	if hasCond {
		condBlob = d.Bytes()
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("stream: restore: %w", err)
	}
	if final < 0 || final > int(winLen) {
		return fmt.Errorf("stream: restore: filter frontier %d outside window of %d samples", final, winLen)
	}
	// The conditioner restore mutates its receiver, so it runs last among
	// the fallible steps — but before any tracker field is committed.
	if hasCond {
		if err := t.cond.Restore(condBlob); err != nil {
			return fmt.Errorf("stream: restore: %w", err)
		}
	}

	// Commit. Everything below is infallible.
	t.grav.SetState(grav, gravPrimed)
	t.base = base
	t.absCount = absCount
	t.off = 0
	t.arMag, t.arVert, t.arH1, t.arH2 = arenas[0], arenas[1], arenas[2], arenas[3]
	t.arFwd, t.arSmth = arenas[4], arenas[5]
	t.refreshViews()
	if t.fwdBq != nil {
		t.fwdBq.SetState(bx1, bx2, by1, by2)
	}
	t.final = final
	t.lastPeak = lastPeak
	t.lastCycleLen = lastCycleLen
	t.dec.PrevEnd = prevEnd
	t.sinceScan = sinceScan
	t.dec.Pending = pending
	t.fit.Last = lastAxis
	t.dec.ID.SetState(gaitid.State{
		Steps:       ids.steps,
		Consecutive: ids.consecutive,
		Confirmed:   ids.confirmed,
		Threshold:   ids.threshold,
	})
	if t.dec.Adaptive != nil {
		t.dec.Adaptive.SetState(adHist, adNext, adFull)
	}
	return nil
}
