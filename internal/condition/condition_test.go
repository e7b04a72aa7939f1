package condition

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// cleanTrace renders a clean simulated walking trace.
func cleanTrace(t testing.TB, durS float64) *trace.Trace {
	t.Helper()
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(),
		trace.ActivityWalking, durS)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return rec.Trace
}

func TestCleanPassThrough(t *testing.T) {
	tr := cleanTrace(t, 20)
	segs, rep, err := Condition(tr, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if len(segs) != 1 || segs[0] != tr {
		t.Fatalf("clean trace must pass through as the input pointer, got %d segments", len(segs))
	}
	if !rep.Clean || rep.Defects() != 0 {
		t.Fatalf("clean trace reported defects: %+v", rep)
	}
	if rep.Output != len(tr.Samples) || rep.NominalRate != tr.SampleRate {
		t.Fatalf("clean report inconsistent: %+v", rep)
	}
}

func TestSortAndDedupe(t *testing.T) {
	tr := cleanTrace(t, 20)
	defective := &trace.Trace{SampleRate: tr.SampleRate, Label: tr.Label,
		Samples: append([]trace.Sample(nil), tr.Samples...)}
	// Swap some adjacent pairs and duplicate a few samples.
	rng := rand.New(rand.NewSource(7))
	swaps := 0
	for i := 10; i+1 < len(defective.Samples); i += 50 {
		defective.Samples[i], defective.Samples[i+1] = defective.Samples[i+1], defective.Samples[i]
		swaps++
	}
	dups := 0
	for i := 25; i < len(defective.Samples); i += 200 {
		defective.Samples = append(defective.Samples, defective.Samples[i])
		dups++
	}
	_ = rng
	segs, rep, err := Condition(defective, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	if rep.OutOfOrder == 0 || rep.Duplicates != dups {
		t.Fatalf("expected out-of-order>0 and %d duplicates, got %+v", dups, rep)
	}
	out := segs[0]
	if len(out.Samples) != len(tr.Samples) {
		t.Fatalf("sample count %d != clean %d", len(out.Samples), len(tr.Samples))
	}
	for i := range out.Samples {
		if out.Samples[i].Accel != tr.Samples[i].Accel {
			t.Fatalf("sample %d accel differs after sort/dedupe: %v vs %v",
				i, out.Samples[i].Accel, tr.Samples[i].Accel)
		}
	}
}

func TestNonFiniteDroppedAndBridged(t *testing.T) {
	tr := cleanTrace(t, 20)
	defective := &trace.Trace{SampleRate: tr.SampleRate,
		Samples: append([]trace.Sample(nil), tr.Samples...)}
	defective.Samples[100].Accel.X = math.NaN()
	defective.Samples[500].Yaw = math.Inf(1)
	defective.Samples[900].T = math.NaN()
	segs, rep, err := Condition(defective, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if rep.NonFinite != 3 {
		t.Fatalf("expected 3 non-finite, got %d", rep.NonFinite)
	}
	for _, seg := range segs {
		if verr := seg.Validate(); verr != nil {
			t.Fatalf("conditioned segment invalid: %v", verr)
		}
	}
	if segs[0].Samples[100].Accel.X != segs[0].Samples[100].Accel.X { // NaN check
		t.Fatalf("NaN survived conditioning")
	}
	if len(segs[0].Samples) != len(tr.Samples) {
		t.Fatalf("holes not bridged: %d vs %d samples", len(segs[0].Samples), len(tr.Samples))
	}
}

func TestGapBridgeAndSplit(t *testing.T) {
	tr := cleanTrace(t, 30)
	n := len(tr.Samples)
	var samples []trace.Sample
	samples = append(samples, tr.Samples[:n/4]...)
	samples = append(samples, tr.Samples[n/4+30:n/2]...) // 0.3 s hole: bridged
	samples = append(samples, tr.Samples[n/2+500:]...)   // 5 s hole: split
	defective := &trace.Trace{SampleRate: tr.SampleRate, Samples: samples}
	segs, rep, err := Condition(defective, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments, got %d", len(segs))
	}
	if rep.GapsBridged != 1 || rep.GapsSplit != 1 {
		t.Fatalf("expected 1 bridged + 1 split gap, got %+v", rep.Gaps)
	}
	// The bridged hole must be filled at the nominal rate.
	if got, want := len(segs[0].Samples), n/2; got != want {
		t.Fatalf("segment 0 has %d samples, want %d", got, want)
	}
	for _, seg := range segs {
		if verr := seg.Validate(); verr != nil {
			t.Fatalf("conditioned segment invalid: %v", verr)
		}
	}
}

func TestMissingRateEstimated(t *testing.T) {
	tr := cleanTrace(t, 20)
	defective := &trace.Trace{Samples: tr.Samples} // SampleRate 0
	segs, rep, err := Condition(defective, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if !rep.MissingRate {
		t.Fatalf("missing rate not reported: %+v", rep)
	}
	if math.Abs(rep.NominalRate-tr.SampleRate) > 0.5 {
		t.Fatalf("estimated rate %v, want ~%v", rep.NominalRate, tr.SampleRate)
	}
	if segs[0].SampleRate != rep.NominalRate {
		t.Fatalf("segment rate %v != nominal %v", segs[0].SampleRate, rep.NominalRate)
	}
}

func TestRateDriftDetected(t *testing.T) {
	tr := cleanTrace(t, 20)
	drifted := &trace.Trace{SampleRate: tr.SampleRate,
		Samples: append([]trace.Sample(nil), tr.Samples...)}
	// Stretch the clock by 10%: true spacing 1.1/rate.
	for i := range drifted.Samples {
		drifted.Samples[i].T *= 1.1
	}
	_, rep, err := Condition(drifted, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if !rep.RateDrift {
		t.Fatalf("rate drift not reported: %+v", rep)
	}
	if math.Abs(rep.NominalRate-tr.SampleRate/1.1) > 1 {
		t.Fatalf("nominal %v, want ~%v", rep.NominalRate, tr.SampleRate/1.1)
	}
}

func TestClippingFlagged(t *testing.T) {
	tr := cleanTrace(t, 10)
	clippedTr := &trace.Trace{SampleRate: tr.SampleRate,
		Samples: append([]trace.Sample(nil), tr.Samples...)}
	for i := 200; i < 210; i++ {
		clippedTr.Samples[i].Accel.Z = 50
	}
	// Clipping alone must not force resampling (values are kept).
	segs, rep, err := Condition(clippedTr, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	if segs[0] != clippedTr {
		t.Fatalf("clip-only trace should still pass through")
	}
	if rep.ClippedRuns != 1 || rep.ClippedSamples != 10 {
		t.Fatalf("expected 1 clipped run of 10, got %d runs / %d samples",
			rep.ClippedRuns, rep.ClippedSamples)
	}
}

// TestIdempotent: conditioning a conditioner's output is a no-op.
func TestIdempotent(t *testing.T) {
	tr := cleanTrace(t, 20)
	defective := gaitsim.InjectFaults(tr, gaitsim.FaultsAtSeverity(0.5, 42))
	segs, _, err := Condition(defective, Config{})
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	for i, seg := range segs {
		again, rep2, err := Condition(seg, Config{})
		if err != nil {
			t.Fatalf("re-condition segment %d: %v", i, err)
		}
		if !rep2.Clean || len(again) != 1 || again[0] != seg {
			t.Fatalf("segment %d not idempotent: clean=%v defects=%d", i, rep2.Clean, rep2.Defects())
		}
	}
}

// TestConditionedAlwaysValid: whatever faults are injected, every output
// segment satisfies the ingestion contract.
func TestConditionedAlwaysValid(t *testing.T) {
	tr := cleanTrace(t, 20)
	for _, sev := range []float64{0.1, 0.3, 0.6, 1.0} {
		for seed := int64(1); seed <= 3; seed++ {
			defective := gaitsim.InjectFaults(tr, gaitsim.FaultsAtSeverity(sev, seed))
			segs, rep, err := Condition(defective, Config{})
			if err != nil {
				t.Fatalf("sev %v seed %d: %v", sev, seed, err)
			}
			if rep.Defects() == 0 {
				t.Fatalf("sev %v seed %d: faults injected but no defects reported", sev, seed)
			}
			for j, seg := range segs {
				if verr := seg.Validate(); verr != nil {
					t.Fatalf("sev %v seed %d segment %d invalid: %v", sev, seed, j, verr)
				}
			}
		}
	}
}

func TestEmptyAndUnusable(t *testing.T) {
	if _, _, err := Condition(nil, Config{}); err != ErrEmpty {
		t.Fatalf("nil trace: got %v, want ErrEmpty", err)
	}
	if _, _, err := Condition(&trace.Trace{SampleRate: 100}, Config{}); err != ErrEmpty {
		t.Fatalf("no samples: got %v, want ErrEmpty", err)
	}
	bad := &trace.Trace{SampleRate: 100, Samples: []trace.Sample{
		{T: math.NaN()}, {T: math.Inf(1)},
	}}
	if _, _, err := Condition(bad, Config{}); err != ErrUnusable {
		t.Fatalf("all-NaN trace: got %v, want ErrUnusable", err)
	}
}

// TestRateCeiling: a grid rate above maxRate is refused. Without the
// ceiling a trace with no declared rate, 10 samples 100 µs apart and one
// more at 1.9 s is estimated at 10 kHz and bridged into 19 001 samples.
func TestRateCeiling(t *testing.T) {
	const dt = 100e-6
	in := make([]trace.Sample, 0, 11)
	for i := 0; i < 10; i++ {
		in = append(in, trace.Sample{T: float64(i) * dt})
	}
	in = append(in, trace.Sample{T: 1.9})
	segs, rep, err := Condition(&trace.Trace{Samples: in}, Config{})
	if err != ErrUnusable || segs != nil {
		t.Fatalf("10 kHz estimate: %d segments, err %v; want ErrUnusable", len(segs), err)
	}
	if rep.Rejected != len(in) || rep.Output != 0 {
		t.Fatalf("10 kHz estimate: rejected %d, output %d; want %d, 0", rep.Rejected, rep.Output, len(in))
	}

	// Declared and spaced at 2 kHz: not clean, and refused.
	fast := &trace.Trace{SampleRate: 2000, Samples: make([]trace.Sample, 100)}
	for i := range fast.Samples {
		fast.Samples[i].T = float64(i) / fast.SampleRate
	}
	if _, rep, err := Condition(fast, Config{}); err != ErrUnusable || rep.Clean {
		t.Fatalf("2 kHz trace: clean %v, err %v; want ErrUnusable", rep.Clean, err)
	}

	// Declared at 5 kHz but spaced at the simulator's rate: the drift
	// rule conditions it at the spaced rate.
	tr := cleanTrace(t, 10)
	segs, rep, err = Condition(&trace.Trace{SampleRate: 5000, Samples: tr.Samples}, Config{})
	if err != nil {
		t.Fatalf("5 kHz declaration: %v", err)
	}
	if !rep.RateDrift || math.Abs(rep.NominalRate-tr.SampleRate) > 0.5 || segs[0].SampleRate != rep.NominalRate {
		t.Fatalf("5 kHz declaration: drift %v, nominal %v; want drift to ~%v", rep.RateDrift, rep.NominalRate, tr.SampleRate)
	}

	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), 2000} {
		if _, err := NewStreamer(StreamConfig{Config: Config{NominalRate: rate}}); err == nil {
			t.Errorf("NewStreamer(%v Hz) accepted", rate)
		}
	}
	if _, err := NewStreamer(StreamConfig{Config: Config{NominalRate: maxRate}}); err != nil {
		t.Errorf("NewStreamer(%v Hz): %v", maxRate, err)
	}
}

// TestAmplificationBounded: a trace declared at 100 Hz that repeats
// three samples 10 ms apart and then a 1.99 s hole passes the rate
// check (the median spacing is 10 ms), and bridging every hole would
// emit ~67 samples per raw one. Both conditioners bridge only while the
// output stays within maxAmplify per raw sample committed plus one
// maxGapS hole's worth, and split the rest.
func TestAmplificationBounded(t *testing.T) {
	const (
		n    = 93000
		rate = 100
		want = 186060 // pinned output count of the bounded rule
	)
	in := make([]trace.Sample, 0, n)
	for g := 0; len(in) < n; g++ {
		for k := 0; k < 3; k++ {
			in = append(in, trace.Sample{T: float64(g)*2.01 + float64(k)*0.01})
		}
	}
	if limit := maxAmplify*n + maxGapS*rate; want > limit {
		t.Fatalf("pinned output %d exceeds the bound %d", want, limit)
	}

	var segs []*trace.Trace
	var rep *Report
	batchBytes := allocatedBytes(func() {
		var err error
		segs, rep, err = Condition(&trace.Trace{SampleRate: rate, Samples: in}, Config{})
		if err != nil {
			t.Fatal(err)
		}
	})
	total := 0
	for _, seg := range segs {
		total += len(seg.Samples)
	}
	if total != want || rep.Output != want || rep.GapsSplit == 0 {
		t.Fatalf("batch: %d samples out (report %d, %d splits), want %d", total, rep.Output, rep.GapsSplit, want)
	}
	// The ordered copy, at most maxAmplify output samples per input one
	// and the report's gap map fit in 384 B per input sample.
	if perSample := batchBytes / n; perSample > 384 {
		t.Fatalf("batch allocated %d B per input sample, want <= 384", perSample)
	}

	s, err := NewStreamer(StreamConfig{Config: Config{NominalRate: rate}})
	if err != nil {
		t.Fatal(err)
	}
	out := 0
	streamBytes := allocatedBytes(func() {
		for _, raw := range in {
			out += len(s.Push(raw))
		}
		out += len(s.Flush())
	})
	if out != want || s.Report().GapsSplit != rep.GapsSplit {
		t.Fatalf("stream: %d samples out, %d splits; want %d, %d", out, s.Report().GapsSplit, want, rep.GapsSplit)
	}
	if perSample := streamBytes / n; perSample > 64 {
		t.Fatalf("stream allocated %d B per input sample, want <= 64", perSample)
	}
}

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkCondition measures the batch conditioner on a 120 s, 100 Hz
// walk at fault severity 1 — the full order, rate and resample path.
// `make bench-condition` prints it, informational only.
func BenchmarkCondition(b *testing.B) {
	tr := gaitsim.InjectFaults(cleanTrace(b, 120), gaitsim.FaultsAtSeverity(1, 1))
	b.ResetTimer()
	bytes := allocatedBytes(func() {
		for i := 0; i < b.N; i++ {
			if _, _, err := Condition(tr, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	total := float64(b.N) * float64(len(tr.Samples))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/sample")
	b.ReportMetric(float64(bytes)/total, "B/sample")
	b.ReportMetric(float64(len(tr.Samples)), "samples/op")
}
