package condition

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

func collect(s *Streamer, samples []trace.Sample) []Out {
	var all []Out
	for _, raw := range samples {
		all = append(all, s.Push(raw)...)
	}
	return append(all, s.Flush()...)
}

// TestStreamCleanPassThrough: a clean on-grid stream must come out
// bit-identical, with no defects reported.
func TestStreamCleanPassThrough(t *testing.T) {
	tr := cleanTrace(t, 20)
	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: tr.SampleRate}})
	if err != nil {
		t.Fatal(err)
	}
	outs := collect(s, tr.Samples)
	if len(outs) != len(tr.Samples) {
		t.Fatalf("got %d samples, want %d", len(outs), len(tr.Samples))
	}
	for i, o := range outs {
		if o.Split {
			t.Fatalf("unexpected split at %d", i)
		}
		if o.Sample != tr.Samples[i] {
			t.Fatalf("sample %d altered: %+v vs %+v", i, o.Sample, tr.Samples[i])
		}
	}
	if rep := s.Report(); !rep.Clean || rep.Defects() != 0 {
		t.Fatalf("clean stream reported defects: %+v", rep)
	}
}

// walkAt renders a clean simulated walk at the given sample rate.
func walkAt(t testing.TB, rate, durS float64) *trace.Trace {
	t.Helper()
	cfg := gaitsim.DefaultConfig()
	cfg.SampleRate = rate
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), cfg, trace.ActivityWalking, durS)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return rec.Trace
}

// TestStreamMatchesBatch: Condition and a default-window Streamer commit
// through the same grid path, so across the fault-severity sweep they
// must agree sample for sample, split for split and counter for counter.
// The one exception is OutOfOrder, which the two define differently:
// batch counts adjacent descents in arrival order, the streamer counts
// insertions behind its newest buffered sample.
func TestStreamMatchesBatch(t *testing.T) {
	for _, rate := range []float64{50, 100, 200} {
		clean := walkAt(t, rate, 120)
		for _, sev := range []float64{0, 0.25, 0.5, 0.75, 1} {
			for seed := int64(1); seed <= 10; seed++ {
				name := fmt.Sprintf("%gHz/sev%g/seed%d", rate, sev, seed)
				defective := gaitsim.InjectFaults(clean, gaitsim.FaultsAtSeverity(sev, seed))
				cfg := Config{NominalRate: rate}
				segs, brep, err := Condition(defective, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				s, err := NewStreamer(StreamConfig{Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				outs := collect(s, defective.Samples)

				var batch []Out
				for i, seg := range segs {
					for j, smp := range seg.Samples {
						batch = append(batch, Out{Sample: smp, Split: i > 0 && j == 0})
					}
				}
				if len(outs) != len(batch) {
					t.Fatalf("%s: stream emitted %d samples, batch %d", name, len(outs), len(batch))
				}
				for i := range outs {
					if outs[i] != batch[i] {
						t.Fatalf("%s: output %d: stream %+v vs batch %+v", name, i, outs[i], batch[i])
					}
				}
				b, st := *brep, *s.Report()
				b.OutOfOrder, st.OutOfOrder = 0, 0
				b.EffectiveRate = st.EffectiveRate // the streamer does not estimate it
				if !reflect.DeepEqual(b, st) {
					t.Fatalf("%s: reports differ:\nbatch  %+v\nstream %+v", name, b, st)
				}
			}
		}
	}
}

// TestGridNearerCandidateWins: when two raw samples fall within
// jitterTol of one grid point, the nearer one takes it (the earlier one
// on a tie), whichever side of the point it is on and whichever order
// the two arrive in, on both conditioners.
func TestGridNearerCandidateWins(t *testing.T) {
	const rate = 64 // every timestamp below is exact in binary
	dt := 1.0 / rate
	gp := 3 * dt // the contested grid point
	cases := []struct {
		name        string
		early, late float64 // candidate offsets from gp, seconds
		wantYaw     float64 // 1: the early candidate wins, 2: the late one
	}{
		{"nearer-late", -dt / 5, dt / 8, 2},
		{"nearer-early", -dt / 8, dt / 5, 1},
		{"tie", -dt / 8, dt / 8, 1},
	}
	for _, tc := range cases {
		for _, swapped := range []bool{false, true} {
			name := fmt.Sprintf("%s/swapped=%v", tc.name, swapped)
			early := trace.Sample{T: gp + tc.early, Yaw: 1}
			late := trace.Sample{T: gp + tc.late, Yaw: 2}
			in := []trace.Sample{{T: 0}, {T: dt}, {T: 2 * dt}, early, late, {T: 4 * dt}, {T: 5 * dt}}
			if swapped {
				in[3], in[4] = in[4], in[3]
			}
			want := []float64{0, 0, 0, tc.wantYaw, 0, 0}

			segs, _, err := Condition(&trace.Trace{SampleRate: rate, Samples: in}, Config{NominalRate: rate})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(segs) != 1 || len(segs[0].Samples) != len(want) {
				t.Fatalf("%s: batch gave %d segments", name, len(segs))
			}
			s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: rate}})
			if err != nil {
				t.Fatal(err)
			}
			outs := collect(s, in)
			if len(outs) != len(want) {
				t.Fatalf("%s: stream emitted %d samples, want %d", name, len(outs), len(want))
			}
			for i, y := range want {
				if got := segs[0].Samples[i]; got.Yaw != y || got.T != float64(i)*dt {
					t.Fatalf("%s: batch sample %d = %+v, want yaw %v at %v", name, i, got, y, float64(i)*dt)
				}
				if got := outs[i].Sample; got.Yaw != y || got.T != float64(i)*dt {
					t.Fatalf("%s: stream sample %d = %+v, want yaw %v at %v", name, i, got, y, float64(i)*dt)
				}
			}
		}
	}
}

// TestSplitEndsClipRun: two saturated samples before a long gap and two
// after it are two short runs, not one flagged run of four, on both
// conditioners.
func TestSplitEndsClipRun(t *testing.T) {
	const rate = 100
	var in []trace.Sample
	for i := 0; i < 20; i++ {
		in = append(in, trace.Sample{T: float64(i) / rate})
	}
	for i := 0; i < 20; i++ {
		in = append(in, trace.Sample{T: 5 + float64(i)/rate}) // 4.8 s hole: split
	}
	for _, i := range []int{18, 19, 20, 21} {
		in[i].Accel.Z = 50
	}
	_, brep, err := Condition(&trace.Trace{SampleRate: rate, Samples: in}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: rate}})
	if err != nil {
		t.Fatal(err)
	}
	collect(s, in)
	for name, rep := range map[string]*Report{"batch": brep, "stream": s.Report()} {
		if rep.GapsSplit != 1 || rep.ClippedRuns != 0 {
			t.Errorf("%s: %d splits, %d clipped runs; want 1, 0", name, rep.GapsSplit, rep.ClippedRuns)
		}
	}
}

// TestRestoreKeepsAmplificationBudget: the committed-sample count that
// the amplification bound charges against is not in the snapshot
// layout; Restore rebuilds it from the report counters. A streamer
// restored at any cut must then bridge and split exactly like an
// uninterrupted one, with non-finite, duplicate and late samples in the
// stream so every term of the rebuild is exercised.
func TestRestoreKeepsAmplificationBudget(t *testing.T) {
	const rate = 100
	var in []trace.Sample
	for g := 0; len(in) < 3000; g++ {
		for k := 0; k < 3; k++ {
			in = append(in, trace.Sample{T: float64(g)*2.01 + float64(k)*0.01})
		}
		switch g % 4 {
		case 1:
			in = append(in, trace.Sample{T: math.NaN()})
		case 2:
			in = append(in, in[len(in)-1]) // duplicate
		case 3:
			in = append(in, trace.Sample{T: 0.005}) // late: rejected
		}
	}
	cfg := StreamConfig{Config: Config{NominalRate: rate}}
	whole, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := collect(whole, in)
	wantRep := *whole.Report()
	if wantRep.GapsBridged == 0 || wantRep.GapsSplit == 0 || wantRep.NonFinite == 0 ||
		wantRep.Duplicates == 0 || wantRep.Rejected == 0 {
		t.Fatalf("trace does not exercise the bound and every counter: %+v", wantRep)
	}
	for _, cut := range []int{1, 7, 100, 1001, 2500} {
		a, _ := NewStreamer(cfg)
		var got []Out
		for _, raw := range in[:cut] {
			got = append(got, a.Push(raw)...)
		}
		b, _ := NewStreamer(cfg)
		if err := b.Restore(a.Snapshot(nil)); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		got = append(got, collect(b, in[cut:])...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restored output differs from the uninterrupted run (%d vs %d samples)", cut, len(got), len(want))
		}
		gotRep := *b.Report()
		gotRep.Gaps, wantRep.Gaps = nil, nil // not snapshotted
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("cut %d: report %+v, want %+v", cut, gotRep, wantRep)
		}
	}
}

func TestStreamSplitsLongGap(t *testing.T) {
	tr := cleanTrace(t, 20)
	n := len(tr.Samples)
	var in []trace.Sample
	in = append(in, tr.Samples[:n/2]...)
	in = append(in, tr.Samples[n/2+500:]...) // 5 s hole
	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: tr.SampleRate}})
	if err != nil {
		t.Fatal(err)
	}
	outs := collect(s, in)
	splits := 0
	for _, o := range outs {
		if o.Split {
			splits++
		}
	}
	if splits != 1 {
		t.Fatalf("expected exactly 1 split, got %d", splits)
	}
	if rep := s.Report(); rep.GapsSplit != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestStreamRejectsLateAndNonFinite(t *testing.T) {
	const rate = 100
	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: rate}})
	if err != nil {
		t.Fatal(err)
	}
	// Push three windows' worth so the commit frontier is well past the
	// start of the stream.
	dt := 1.0 / rate
	for i := 0; i < 3*reorderWindow(rate); i++ {
		s.Push(trace.Sample{T: float64(i) * dt})
	}
	s.Push(trace.Sample{T: math.NaN()})
	s.Push(trace.Sample{T: 0.001}) // far behind the committed frontier
	s.Flush()
	rep := s.Report()
	if rep.NonFinite != 1 {
		t.Fatalf("NonFinite = %d, want 1", rep.NonFinite)
	}
	if rep.Rejected != 1 || rep.OutOfOrder != 1 {
		t.Fatalf("late sample not rejected: %+v", rep)
	}
}

// TestStreamSteadyStateAllocFree: pushing in-order on-grid samples must
// not allocate once the reorder buffer and output slice are warm.
func TestStreamSteadyStateAllocFree(t *testing.T) {
	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: 100}})
	if err != nil {
		t.Fatal(err)
	}
	dt := 0.01
	n := 0
	for i := 0; i < 100; i++ { // warm-up
		s.Push(trace.Sample{T: float64(n) * dt})
		n++
	}
	avg := testing.AllocsPerRun(1000, func() {
		s.Push(trace.Sample{T: float64(n) * dt})
		n++
	})
	if avg != 0 {
		t.Fatalf("steady-state Push allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkStreamerPush measures the streaming conditioner's per-sample
// cost on a clean stream (the steady-state fast path) — gated by
// `make bench-condition`.
func BenchmarkStreamerPush(b *testing.B) {
	tr := cleanTrace(b, 60)
	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: tr.SampleRate}})
	if err != nil {
		b.Fatal(err)
	}
	samples := tr.Samples
	dur := samples[len(samples)-1].T + 1/tr.SampleRate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := float64(i) * dur
		for _, raw := range samples {
			raw.T += base // keep time monotonic across iterations
			s.Push(raw)
		}
	}
	b.StopTimer()
	total := float64(b.N) * float64(len(samples))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/sample")
	b.ReportMetric(float64(len(samples)), "samples/op")
}
