package gaitid

import (
	"testing"

	"ptrack/internal/obs"
	"ptrack/internal/stride"
)

// newTestDecider returns a 100 Hz decider with a stride estimator and
// hooks on a fresh registry, plus a reader for its cycle counter.
func newTestDecider(t *testing.T) (*Decider, func() float64) {
	t.Helper()
	est, err := stride.New(stride.Config{ArmLength: 0.65, LegLength: 0.95, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.GoRuntime = false
	d := &Decider{
		ID:         NewIdentifier(Config{}, 100),
		Est:        est,
		Hooks:      obs.NewHooks(reg),
		SampleRate: 100,
	}
	cycles := func() float64 {
		var n float64
		for _, l := range []string{"walking", "stepping", "interference", "unlabeled"} {
			n += reg.Counter("ptrack_cycles_total", "Gait-cycle candidates classified, by label.", "label", l).Value()
		}
		return n
	}
	return d, cycles
}

// decideAt feeds one 110-sample cycle starting at sample start, with no
// margin, so consecutive calls at start, start+110, ... are contiguous.
func decideAt(d *Decider, start int, vert, ant []float64, ok bool) Decision {
	return d.Decide(start, start+len(vert), vert, ant, ok, 0)
}

func TestDecideConfirmationBackfill(t *testing.T) {
	d, cycles := newTestDecider(t)
	v, a := makeStepCycle(110)
	for i := 0; i < 2; i++ {
		dec := decideAt(d, 110*i, v, a, true)
		if dec.Label != LabelStepping || dec.StepsAdded != 0 || dec.Strides != nil || len(d.Pending) != i+1 {
			t.Fatalf("cycle %d: label %v steps %d strides %v pending %d", i, dec.Label, dec.StepsAdded, dec.Strides, len(d.Pending))
		}
	}
	dec := decideAt(d, 220, v, a, true)
	if len(dec.Backfill) != 2 {
		t.Fatalf("confirmation back-filled %d cycles, want 2", len(dec.Backfill))
	}
	if dec.StepsAdded != 6 || dec.StepsAdded-2*len(dec.Backfill) != 2 {
		t.Errorf("confirmation StepsAdded %d with %d back-filled", dec.StepsAdded, len(dec.Backfill))
	}
	if dec.Backfill[0].T != 1.1 || dec.Backfill[1].T != 2.2 || dec.T != 3.3 {
		t.Errorf("times: back-fill %v, %v; cycle %v", dec.Backfill[0].T, dec.Backfill[1].T, dec.T)
	}
	if len(dec.Strides) != 2 || len(dec.Backfill[0].Strides) != 2 {
		t.Errorf("strides: cycle %v, back-fill %v", dec.Strides, dec.Backfill[0].Strides)
	}
	if len(d.Pending) != 0 {
		t.Errorf("%d cycles still pending after confirmation", len(d.Pending))
	}
	if got := cycles(); got != 3 {
		t.Errorf("Cycle hook fired %v times over 3 decisions", got)
	}
}

func TestDecideDegenerateAxisBreaksStreak(t *testing.T) {
	d, cycles := newTestDecider(t)
	v, a := makeStepCycle(110)
	decideAt(d, 0, v, a, true)
	decideAt(d, 110, v, a, true)
	dec := decideAt(d, 220, v, nil, false)
	if dec.Label != LabelInterference || dec.StepsAdded != 0 || dec.OffsetOK {
		t.Fatalf("degenerate axis: label %v steps %d offsetOK %v", dec.Label, dec.StepsAdded, dec.OffsetOK)
	}
	if len(d.Pending) != 0 {
		t.Errorf("%d cycles still pending after a degenerate axis", len(d.Pending))
	}
	// The streak restarts: the next stepping cycle is pending again.
	if dec := decideAt(d, 330, v, a, true); dec.StepsAdded != 0 || len(d.Pending) != 1 {
		t.Errorf("after the break: steps %d, pending %d", dec.StepsAdded, len(d.Pending))
	}
	if got := cycles(); got != 4 {
		t.Errorf("Cycle hook fired %v times over 4 decisions", got)
	}
}

func TestDecideGapAndBreak(t *testing.T) {
	d, _ := newTestDecider(t)
	v, a := makeStepCycle(110)
	decideAt(d, 0, v, a, true)
	decideAt(d, 110, v, a, true)
	// A gap longer than a quarter cycle breaks the streak.
	if dec := decideAt(d, 300, v, a, true); dec.StepsAdded != 0 || len(d.Pending) != 1 {
		t.Fatalf("after a gap: steps %d, pending %d", dec.StepsAdded, len(d.Pending))
	}
	d.Break()
	if d.PrevEnd != 0 || len(d.Pending) != 0 {
		t.Fatalf("Break left PrevEnd %d, %d pending", d.PrevEnd, len(d.Pending))
	}
	// With the gap state reset, a cycle far from the last one is not a
	// gap: three more stepping cycles confirm from scratch.
	var dec Decision
	for i := 0; i < 3; i++ {
		dec = decideAt(d, 5000+110*i, v, a, true)
	}
	if dec.StepsAdded != 6 || len(dec.Backfill) != 2 {
		t.Errorf("confirmation after Break: steps %d, back-fill %d", dec.StepsAdded, len(dec.Backfill))
	}
}

func TestDecideWalkingStridesAveraged(t *testing.T) {
	d, _ := newTestDecider(t)
	d.Pending = append(d.Pending, Pending{T: 0.5})
	v, a := makeWalkCycle(110)
	dec := decideAt(d, 0, v, a, true)
	if dec.Label != LabelWalking || dec.StepsAdded != 2 {
		t.Fatalf("label %v steps %d", dec.Label, dec.StepsAdded)
	}
	if len(d.Pending) != 0 {
		t.Error("walking cycle kept pending stepping cycles")
	}
	if len(dec.Strides) != 2 || dec.Strides[0] != dec.Strides[1] {
		t.Errorf("walking strides %v not averaged", dec.Strides)
	}
}
