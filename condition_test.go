package ptrack

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"regexp"
	"testing"

	"ptrack/internal/gaitsim"
)

func walkingRecording(t *testing.T, durS float64) *Recording {
	t.Helper()
	rec, err := Simulate(DefaultSimProfile(), DefaultSimConfig(),
		[]SimSegment{{Activity: ActivityWalking, Duration: durS}})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// Conditioning a clean trace must be a pass-through: the result matches
// the unconditioned run exactly, and ConditionTrace hands back the very
// same trace pointer.
func TestConditioningCleanParity(t *testing.T) {
	rec := walkingRecording(t, 60)

	plain, err := New(WithProfile(0.62, 0.90, 2.35))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}

	cond, err := New(WithProfile(0.62, 0.90, 2.35), WithConditioning())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cond.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if got.Conditioning == nil || !got.Conditioning.Clean || got.Conditioning.Defects() != 0 {
		t.Fatalf("clean trace not reported clean: %+v", got.Conditioning)
	}
	got.Conditioning = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conditioned clean result diverged:\n got %+v\nwant %+v", got, want)
	}

	segs, rep, err := ConditionTrace(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != rec.Trace {
		t.Errorf("clean ConditionTrace returned %d segments (same pointer: %v)",
			len(segs), len(segs) == 1 && segs[0] == rec.Trace)
	}
	if !rep.Clean {
		t.Errorf("clean trace report: %+v", rep)
	}
}

// Without conditioning, traces violating the ingestion contract must be
// rejected loudly; with conditioning they are repaired and processed.
func TestProcessDefectiveTrace(t *testing.T) {
	rec := walkingRecording(t, 60)
	defective := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.5, 23))

	plain, err := New()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := plain.Process(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Process(defective); !errors.Is(err, ErrDefectiveTrace) {
		t.Fatalf("defective trace: got %v, want ErrDefectiveTrace", err)
	}

	cond, err := New(WithConditioning())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cond.Process(defective)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conditioning == nil || res.Conditioning.Defects() == 0 {
		t.Fatalf("no defects reported for faulty trace: %+v", res.Conditioning)
	}
	if lo, hi := clean.Steps*7/10, clean.Steps*13/10; res.Steps < lo || res.Steps > hi {
		t.Errorf("conditioned steps %d not within ±30%% of clean %d", res.Steps, clean.Steps)
	}
}

// The batch pool applies the same contract per item: rejection without
// conditioning, repair (plus segment re-merge) with it.
func TestPoolDefectiveTrace(t *testing.T) {
	rec := walkingRecording(t, 60)
	defective := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.5, 31))
	traces := []*Trace{rec.Trace, defective, nil}

	items, err := BatchProcess(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil {
		t.Errorf("clean trace failed: %v", items[0].Err)
	}
	if !errors.Is(items[1].Err, ErrDefectiveTrace) {
		t.Errorf("defective trace: got %v, want ErrDefectiveTrace", items[1].Err)
	}
	if !errors.Is(items[2].Err, ErrEmptyTrace) {
		t.Errorf("nil trace: got %v, want ErrEmptyTrace", items[2].Err)
	}

	items, err = BatchProcess(context.Background(), traces, WithConditioning())
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || items[1].Err != nil {
		t.Fatalf("conditioned batch failed: %v / %v", items[0].Err, items[1].Err)
	}
	if items[0].Result.Conditioning == nil || !items[0].Result.Conditioning.Clean {
		t.Errorf("clean trace not reported clean in batch: %+v", items[0].Result.Conditioning)
	}
	if items[1].Result.Conditioning.Defects() == 0 {
		t.Errorf("defective trace reported no defects in batch")
	}
	if !errors.Is(items[2].Err, ErrEmptyTrace) {
		t.Errorf("nil trace with conditioning: got %v, want ErrEmptyTrace", items[2].Err)
	}
	want := items[0].Result.Steps
	if got := items[1].Result.Steps; got < want*7/10 || got > want*13/10 {
		t.Errorf("conditioned batch steps %d not within ±30%% of clean %d", got, want)
	}
}

// Tracker.Process and the pool admit, process and fold a trace through
// the same path, so for every input — clean, faulty, split by a long
// gap, empty, or with an unusable rate — both must return identical
// results or the same refusal, with and without conditioning.
func TestTrackerPoolParity(t *testing.T) {
	rec := walkingRecording(t, 60)
	gapped := &Trace{SampleRate: rec.Trace.SampleRate, Samples: append([]Sample(nil), rec.Trace.Samples...)}
	for i := len(gapped.Samples) / 2; i < len(gapped.Samples); i++ {
		gapped.Samples[i].T += 5 // an unbridgeable gap: two segments
	}
	inputs := map[string]*Trace{
		"clean":      rec.Trace,
		"faults-0.5": gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.5, 41)),
		"faults-1":   gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(1, 43)),
		"gap":        gapped,
		"nil":        nil,
		"nan-rate":   {SampleRate: math.NaN(), Samples: rec.Trace.Samples},
	}
	names := make([]string, 0, len(inputs))
	traces := make([]*Trace, 0, len(inputs))
	for name, tr := range inputs {
		names = append(names, name)
		traces = append(traces, tr)
	}
	sentinels := []error{ErrEmptyTrace, ErrInvalidSampleRate, ErrDefectiveTrace}
	p := DefaultSimProfile()
	for _, conditioned := range []bool{false, true} {
		opts := []Option{WithProfile(p.ArmLength, p.LegLength, p.K)}
		if conditioned {
			opts = append(opts, WithConditioning())
		}
		tk, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		items, err := BatchProcess(context.Background(), traces, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			want, werr := tk.Process(traces[i])
			got := items[i]
			if !reflect.DeepEqual(got.Result, want) {
				t.Errorf("conditioned=%v %s: pool result differs from Tracker.Process", conditioned, name)
			}
			if (werr == nil) != (got.Err == nil) {
				t.Errorf("conditioned=%v %s: Tracker err %v, pool err %v", conditioned, name, werr, got.Err)
				continue
			}
			for _, s := range sentinels {
				if errors.Is(werr, s) != errors.Is(got.Err, s) {
					t.Errorf("conditioned=%v %s: sentinel %v: Tracker err %v, pool err %v",
						conditioned, name, s, werr, got.Err)
				}
			}
		}
	}
}

// Admission refusals do not depend on the batch running: a cancelled
// batch still reports each refused trace's own sentinel, with or
// without conditioning.
func TestCancelledBatchReportsAdmissionRefusals(t *testing.T) {
	rec := walkingRecording(t, 10)
	defective := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.5, 29))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range [][]Option{nil, {WithConditioning()}} {
		items, err := BatchProcess(ctx, []*Trace{rec.Trace, nil}, opts...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !errors.Is(items[0].Err, context.Canceled) {
			t.Errorf("admitted trace: got %v, want context.Canceled", items[0].Err)
		}
		if !errors.Is(items[1].Err, ErrEmptyTrace) {
			t.Errorf("nil trace: got %v, want ErrEmptyTrace", items[1].Err)
		}
	}
	items, _ := BatchProcess(ctx, []*Trace{defective})
	if !errors.Is(items[0].Err, ErrDefectiveTrace) {
		t.Errorf("defective trace: got %v, want ErrDefectiveTrace", items[0].Err)
	}
}

// An instrumented conditioning run must surface nonzero defect counters
// and the gap histogram through the metrics registry.
func TestConditioningMetrics(t *testing.T) {
	rec := walkingRecording(t, 30)
	defective := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.8, 5))

	m := NewMetrics()
	tk, err := New(WithObserver(NewObserver(m)), WithConditioning())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Process(defective); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	nonzero := regexp.MustCompile(`ptrack_condition_defects_total\{type="(non_finite|duplicate|out_of_order)"\} [1-9]`)
	if !nonzero.MatchString(text) {
		t.Errorf("no nonzero defect counter in exposition:\n%s",
			regexp.MustCompile(`(?m)^ptrack_condition.*$`).FindAllString(text, -1))
	}
	stage := regexp.MustCompile(`ptrack_condition_stage_seconds_total\{stage="resample"\} [0-9.e+-]*[1-9]`)
	if !stage.MatchString(text) {
		t.Errorf("resample stage timer not recorded")
	}
}

// Lenient CSV reading plus conditioning recovers recordings the strict
// reader rejects.
func TestReadRawTraceCSV(t *testing.T) {
	rec := walkingRecording(t, 30)
	defective := gaitsim.InjectFaults(rec.Trace, gaitsim.FaultsAtSeverity(0.5, 7))
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, defective); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceCSV(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("strict reader accepted a defective recording")
	}
	tr, err := ReadRawTraceCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tk, err := New(WithConditioning())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Process(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Error("no steps recovered from repaired CSV recording")
	}
}
