package condition

import (
	"fmt"

	"ptrack/internal/statecodec"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// snapVersion is the Streamer snapshot format revision. Bump on any
// layout change; old blobs then fail with statecodec.ErrVersion instead
// of decoding into wrong state.
const snapVersion = 1

// Snapshot appends the streamer's mutable state — the reorder window,
// the output-grid anchor and the defect counters — as a versioned,
// CRC-sealed blob (appending to dst; pass nil or a recycled buffer).
// The Gaps list of the report is not captured: it grows without bound
// and plays no part in future conditioning decisions (mirroring the
// engine's introspection copies, which also drop it).
func (s *Streamer) Snapshot(dst []byte) []byte {
	e := statecodec.NewEnc(dst, snapVersion)
	e.F64(s.rate)

	live := s.pend[s.head:]
	e.Uint(uint64(len(live)))
	for _, p := range live {
		encSample(e, p)
	}
	e.Bool(s.havePrev)
	encSample(e, s.prev)
	e.F64(s.gridT0)
	e.Int(s.gridN)
	e.Int(s.clipRun)

	e.Int(s.rep.Input)
	e.Int(s.rep.Output)
	e.Int(s.rep.OutOfOrder)
	e.Int(s.rep.Duplicates)
	e.Int(s.rep.NonFinite)
	e.Int(s.rep.Interpolated)
	e.Int(s.rep.Rejected)
	e.Int(s.rep.GapsBridged)
	e.Int(s.rep.GapsSplit)
	e.Int(s.rep.ClippedSamples)
	e.Int(s.rep.ClippedRuns)
	e.Bool(s.rep.Resampled)
	return e.Finish()
}

// Restore replaces the streamer's mutable state with a snapshot taken
// by Snapshot from a streamer with the same configuration. It is
// all-or-nothing: on any error (corruption, version or rate mismatch)
// the receiver is left unchanged. The conditioned output stream then
// continues exactly where the snapshotted streamer's would have.
func (s *Streamer) Restore(blob []byte) error {
	d, err := statecodec.NewDec(blob, snapVersion)
	if err != nil {
		return fmt.Errorf("condition: restore: %w", err)
	}
	if rate := d.F64(); rate != s.rate {
		return fmt.Errorf("condition: restore: snapshot is for %v Hz, streamer runs at %v Hz", rate, s.rate)
	}

	n := d.Uint()
	if n > uint64(s.window)+1 {
		return fmt.Errorf("condition: restore: reorder window holds %d samples, bound is %d", n, s.window)
	}
	pend := make([]trace.Sample, n)
	for i := range pend {
		pend[i] = decSample(d)
	}
	havePrev := d.Bool()
	prev := decSample(d)
	gridT0 := d.F64()
	gridN := d.Int()
	clipRun := d.Int()

	var rep Report
	rep.Input = d.Int()
	rep.Output = d.Int()
	rep.OutOfOrder = d.Int()
	rep.Duplicates = d.Int()
	rep.NonFinite = d.Int()
	rep.Interpolated = d.Int()
	rep.Rejected = d.Int()
	rep.GapsBridged = d.Int()
	rep.GapsSplit = d.Int()
	rep.ClippedSamples = d.Int()
	rep.ClippedRuns = d.Int()
	rep.Resampled = d.Bool()
	if err := d.Done(); err != nil {
		return fmt.Errorf("condition: restore: %w", err)
	}

	s.pend, s.head = pend, 0
	s.havePrev = havePrev
	s.prev = prev
	s.gridT0 = gridT0
	s.gridN = gridN
	s.clipRun = clipRun
	// The committed count is not in the layout; every sample that
	// entered the reorder window and has left it was committed.
	s.committed = rep.Input - rep.NonFinite - rep.Duplicates - rep.Rejected - len(pend)
	s.rep = rep
	return nil
}

func encSample(e *statecodec.Enc, sm trace.Sample) {
	e.F64(sm.T)
	encVec3(e, sm.Accel)
	encVec3(e, sm.Gyro)
	e.F64(sm.Yaw)
}

func decSample(d *statecodec.Dec) trace.Sample {
	var sm trace.Sample
	sm.T = d.F64()
	sm.Accel = decVec3(d)
	sm.Gyro = decVec3(d)
	sm.Yaw = d.F64()
	return sm
}

func encVec3(e *statecodec.Enc, v vecmath.Vec3) {
	e.F64(v.X)
	e.F64(v.Y)
	e.F64(v.Z)
}

func decVec3(d *statecodec.Dec) vecmath.Vec3 {
	return vecmath.V3(d.F64(), d.F64(), d.F64())
}
