package stream

import (
	"math"
	"testing"

	"ptrack/internal/core"
	"ptrack/internal/gaitid"
	"ptrack/internal/gaitsim"
	"ptrack/internal/imu"
	"ptrack/internal/stride"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// parityWarmupS excludes the gravity warm-up from the parity comparison:
// the batch pipeline primes its gravity estimate on the first three
// seconds' mean, while the stream primes on the first sample and refines,
// so cycles ending inside the warm-up may legitimately classify
// differently (the seed's swinging and spoofing traces do).
const parityWarmupS = 5.0

// parityStrideTol bounds the per-step stride difference between batch
// and stream after the warm-up, in metres. Both paths run the same
// per-cycle decision (gaitid.Decider), so what remains is the projection
// front end: walking and stepping agree within 2 cm. Jogging differs by
// up to ~13 cm, cause not yet diagnosed (the differing gravity priming
// is the suspect); its bound only keeps that gap from growing silently.
func parityStrideTol(a trace.Activity) float64 {
	if a == trace.ActivityJogging {
		return 0.15
	}
	return 0.02
}

// TestBatchStreamParity is the golden batch↔stream parity suite: over
// every seed activity, the online tracker must land on exactly the step
// count, cycle-label sequence and per-step strides (within
// parityStrideTol) the batch pipeline produces for the same trace, once
// both gravity estimates have converged. This is an empirical invariant
// of the seed traces rather than a numerical identity — which is
// precisely why it is pinned: a change that breaks it changes observable
// output.
//
// Stream events are deduplicated by cycle end time before comparison:
// stepping cycles awaiting confirmation are emitted once as pending
// (StepsAdded=0) and re-emitted on confirmation with their credited
// steps, while the batch pipeline reports each cycle exactly once. The
// label comes from the first emission; the credited steps from the last.
func TestBatchStreamParity(t *testing.T) {
	p := gaitsim.DefaultProfile()
	profile := &stride.Config{ArmLength: p.ArmLength, LegLength: p.LegLength, K: p.K}
	for _, a := range equivActivities {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			rec, err := gaitsim.SimulateActivity(p, gaitsim.DefaultConfig(), a, 60)
			if err != nil {
				t.Fatal(err)
			}

			batch, err := core.Process(rec.Trace, core.Config{Profile: profile})
			if err != nil {
				t.Fatal(err)
			}

			tk, err := New(Config{SampleRate: rec.Trace.SampleRate, Profile: profile})
			if err != nil {
				t.Fatal(err)
			}
			var events []Event
			for _, s := range rec.Trace.Samples {
				events = append(events, tk.Push(s)...)
			}
			events = append(events, tk.Flush()...)

			// Dedup by cycle end time: label from the first emission,
			// credited steps and strides from the last.
			labelAt := make(map[float64]string, len(events))
			lastAt := make(map[float64]Event, len(events))
			var order []float64
			for _, ev := range events {
				if _, ok := labelAt[ev.T]; !ok {
					labelAt[ev.T] = ev.Label.String()
					order = append(order, ev.T)
				}
				lastAt[ev.T] = ev
			}
			var got []string
			var gotStrides []float64
			for _, ts := range order {
				if ts < parityWarmupS {
					continue
				}
				got = append(got, labelAt[ts])
				gotStrides = appendStepStrides(gotStrides, lastAt[ts])
			}
			var want []string
			wantSteps := 0
			for _, c := range batch.Cycles {
				if c.T < parityWarmupS {
					continue
				}
				want = append(want, c.Label.String())
				wantSteps += c.StepsAdded
			}
			var wantStrides []float64
			for _, s := range batch.StepLog {
				if s.T >= parityWarmupS {
					wantStrides = append(wantStrides, s.Stride)
				}
			}

			if len(gotStrides) != wantSteps {
				t.Errorf("steps after warm-up: stream %d, batch %d", len(gotStrides), wantSteps)
			}
			if len(got) != len(want) {
				t.Fatalf("cycle count: stream %d, batch %d\nstream %v\nbatch  %v",
					len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("cycle %d: stream %s, batch %s", i, got[i], want[i])
				}
			}
			if len(gotStrides) != len(wantStrides) {
				t.Fatalf("strides after warm-up: stream %d, batch %d", len(gotStrides), len(wantStrides))
			}
			tol := parityStrideTol(a)
			worst, at := 0.0, -1
			for i := range gotStrides {
				if d := math.Abs(gotStrides[i] - wantStrides[i]); d > worst {
					worst, at = d, i
				}
			}
			t.Logf("max per-step stride |Δ| %.4f m over %d steps", worst, len(gotStrides))
			if worst > tol {
				t.Errorf("step %d: stride stream %.4f m, batch %.4f m (|Δ| %.4f > %.2f)",
					at, gotStrides[at], wantStrides[at], worst, tol)
			}
		})
	}
}

// appendStepStrides expands one event into its credited steps' strides,
// as the batch StepLog records them: zero when the event carries none.
func appendStepStrides(dst []float64, ev Event) []float64 {
	for i := 0; i < ev.StepsAdded; i++ {
		s := 0.0
		if i < len(ev.Strides) {
			s = ev.Strides[i]
		}
		dst = append(dst, s)
	}
	return dst
}

// TestBatchStreamDegenerateAxisParity feeds a trace whose acceleration
// lies purely along gravity, so no cycle has a fittable anterior axis.
// Batch and stream must both report every such cycle as interference
// (the decider's rule for a degenerate axis) and count nothing.
func TestBatchStreamDegenerateAxisParity(t *testing.T) {
	const rate, seconds = 100.0, 30.0
	tr := &trace.Trace{SampleRate: rate}
	for i := 0; i < int(rate*seconds); i++ {
		ts := float64(i) / rate
		z := imu.StandardGravity + 2.5*math.Sin(2*math.Pi*ts) + 0.8*math.Sin(4*math.Pi*ts)
		tr.Samples = append(tr.Samples, trace.Sample{T: ts, Accel: vecmath.V3(0, 0, z)})
	}

	batch, err := core.Process(tr, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := New(Config{SampleRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	events := tk.PushBlock(tr.Samples, nil)
	events = append(events, tk.Flush()...)

	streamInterference := 0
	for _, ev := range events {
		if ev.Label == gaitid.LabelInterference {
			streamInterference++
		}
	}
	batchInterference := batch.LabelCounts()[gaitid.LabelInterference]
	if batchInterference == 0 || batchInterference != len(batch.Cycles) {
		t.Errorf("batch labels %v over %d cycles, want every cycle interference", batch.LabelCounts(), len(batch.Cycles))
	}
	if streamInterference != batchInterference || len(events) != streamInterference {
		t.Errorf("interference cycles: stream %d of %d events, batch %d", streamInterference, len(events), batchInterference)
	}
	if batch.Steps != 0 || tk.Steps() != 0 {
		t.Errorf("steps: batch %d, stream %d, want 0", batch.Steps, tk.Steps())
	}
}
