package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ptrack
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkOnlineTracker 	    1173	   3078340 ns/op	       513.1 ns/sample	      6000 samples/op	  616660 B/op	    2265 allocs/op
BenchmarkOnlineTrackerScaling/s=60 	     782	   3057984 ns/op	       509.7 ns/sample	      6000 samples/op	  616660 B/op	    2265 allocs/op
BenchmarkOnlineTrackerScaling/s=240 	     202	  11836642 ns/op	       493.2 ns/sample	     24000 samples/op	 1337314 B/op	    8765 allocs/op
PASS
ok  	ptrack	9.408s
`

func TestParse(t *testing.T) {
	report, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if report.Package != "ptrack" {
		t.Errorf("package = %q", report.Package)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(report.Benchmarks))
	}
	b := report.Benchmarks[0]
	if b.Name != "BenchmarkOnlineTracker" || b.Iterations != 1173 {
		t.Errorf("first benchmark = %+v", b)
	}
	if b.Metrics["ns/sample"] != 513.1 || b.Metrics["allocs/op"] != 2265 {
		t.Errorf("metrics = %+v", b.Metrics)
	}
	// allocs/sample is derived wherever allocs/op and samples/op are both
	// reported, and only there.
	if got, want := b.Metrics["allocs/sample"], 2265.0/6000; got != want {
		t.Errorf("derived allocs/sample = %v, want %v", got, want)
	}
	noSamples, _ := parse(strings.NewReader("BenchmarkX 	 10	 100 ns/op	 3 allocs/op\n"))
	if _, ok := noSamples.Benchmarks[0].Metrics["allocs/sample"]; ok {
		t.Error("allocs/sample derived without samples/op")
	}
}

func TestEnforcePasses(t *testing.T) {
	report, _ := parse(strings.NewReader(sampleOutput))
	ceilings := maxFlags{"ns/sample": 664, "allocs/sample": 0.75}
	if err := enforce(report, nil, ceilings, nil, 0.20, 0); err != nil {
		t.Errorf("ceilings should pass: %v", err)
	}
}

func TestEnforceCatchesViolations(t *testing.T) {
	report, _ := parse(strings.NewReader(sampleOutput))
	cases := []struct {
		name         string
		maxes        maxFlags
		flat         float64
		wantFragment string
	}{
		{"ns-per-sample", maxFlags{"ns/sample": 500}, 0, "ns/sample exceeds"},
		{"allocs-per-sample", maxFlags{"allocs/sample": 0.3}, 0, "allocs/sample exceeds"},
		{"flat-within", nil, 0.01, "spread"},
	}
	for _, c := range cases {
		err := enforce(report, nil, c.maxes, nil, c.flat, 0)
		if err == nil || !strings.Contains(err.Error(), c.wantFragment) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.wantFragment)
		}
	}
}

func TestEnforceFlatNeedsTwo(t *testing.T) {
	report, _ := parse(strings.NewReader(`BenchmarkX 	 10	 100 ns/op	 5.0 ns/sample
`))
	if err := enforce(report, nil, nil, nil, 0.2, 0); err == nil {
		t.Error("flat-within with one benchmark should fail")
	}
}

func TestEnforceBaselineRegression(t *testing.T) {
	report, _ := parse(strings.NewReader(sampleOutput)) // OnlineTracker at 513.1 ns/sample

	baseline := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkOnlineTracker", Metrics: map[string]float64{"ns/sample": 500}},
		{Name: "BenchmarkUnrelated", Metrics: map[string]float64{"ns/sample": 1}},
	}}
	// 513.1 vs 500 is a 2.6% regression: passes a 5% gate, fails a 1% one.
	if err := enforce(report, baseline, nil, nil, 0, 0.05); err != nil {
		t.Errorf("2.6%% regression should pass a 5%% gate: %v", err)
	}
	err := enforce(report, baseline, nil, nil, 0, 0.01)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("2.6%% regression past a 1%% gate: err = %v, want regression failure", err)
	}

	// Benchmarks missing from the baseline are not compared.
	fresh := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSomethingElse", Metrics: map[string]float64{"ns/sample": 1}},
	}}
	if err := enforce(report, fresh, nil, nil, 0, 0.01); err != nil {
		t.Errorf("baseline without matching names should pass: %v", err)
	}
}

func TestGenericMaxCeilings(t *testing.T) {
	// The state-snapshot benchmarks report custom metrics the dedicated
	// flags know nothing about; -max METRIC=N gates any of them.
	stateOutput := `pkg: ptrack/internal/stream
BenchmarkSnapshot/plain 	 50000	 20484 ns/op	 57726 bytes/session	 0 B/op	 0 allocs/op
BenchmarkSnapshot/full 	 50000	 22064 ns/op	 59499 bytes/session	 1912 B/op	 8 allocs/op
`
	report, err := parse(strings.NewReader(stateOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := enforce(report, nil, maxFlags{"bytes/session": 65536, "ns/op": 1e6}, nil, 0, 0); err != nil {
		t.Errorf("generous generic ceilings should pass: %v", err)
	}
	err = enforce(report, nil, maxFlags{"bytes/session": 58000}, nil, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "bytes/session exceeds") {
		t.Errorf("bytes ceiling: err = %v, want bytes/session violation", err)
	}
	// Only the offender is named.
	if err != nil && strings.Contains(err.Error(), "plain") {
		t.Errorf("benchmark under the ceiling flagged: %v", err)
	}
	// A metric no benchmark reports never trips.
	if err := enforce(report, nil, maxFlags{"widgets/op": 1}, nil, 0, 0); err != nil {
		t.Errorf("absent metric should not trip: %v", err)
	}

	// Flag parsing: repeatable, rejects malformed values, and the
	// ceilings land in the report.
	var m maxFlags = maxFlags{}
	if err := m.Set("bytes/session=4096"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("ns/op=100"); err != nil {
		t.Fatal(err)
	}
	if m["bytes/session"] != 4096 || m["ns/op"] != 100 {
		t.Errorf("parsed maxes = %v", m)
	}
	for _, bad := range []string{"noequals", "=5", "x=notanumber"} {
		if err := m.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	var out strings.Builder
	if err := run([]string{"-max", "bytes/session=65536"}, strings.NewReader(stateOutput), &out); err != nil {
		t.Fatalf("run with -max: %v", err)
	}
	if !strings.Contains(out.String(), `"max:bytes/session": 65536`) {
		t.Errorf("ceiling not recorded in report: %s", out.String())
	}
}

func TestRunBaselineRoundTrip(t *testing.T) {
	// First run bootstraps the snapshot (missing baseline is skipped),
	// the second compares against it — including when -out overwrites
	// the same file the baseline was read from.
	path := t.TempDir() + "/BENCH.json"
	args := []string{"-out", path, "-baseline", path, "-regress-within", "0.05"}
	var out strings.Builder
	if err := run(args, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatalf("bootstrap run: %v", err)
	}
	if !strings.Contains(out.String(), "skipping regression gate") {
		t.Errorf("bootstrap run did not report the missing baseline: %q", out.String())
	}
	if err := run(args, strings.NewReader(sampleOutput), &strings.Builder{}); err != nil {
		t.Fatalf("identical re-run should pass the gate: %v", err)
	}

	// A third run 10% slower must fail against the committed snapshot.
	slower := strings.ReplaceAll(sampleOutput, "513.1 ns/sample", "570.0 ns/sample")
	err := run(args, strings.NewReader(slower), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("10%% slower run: err = %v, want regression failure", err)
	}
}

func TestGenericMinFloors(t *testing.T) {
	// Capacity metrics invert the comparison: smaller is worse. -min
	// METRIC=N fails any benchmark reporting METRIC below N.
	memOutput := `pkg: ptrack/internal/engine
BenchmarkIdleSessionFootprint 	 1	 1117400041 ns/op	 32549 bytes/idle-session	 32989 sessions-per-GB
`
	report, err := parse(strings.NewReader(memOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := enforce(report, nil, nil, minFlags{"sessions-per-GB": 20000}, 0, 0); err != nil {
		t.Errorf("generous floor should pass: %v", err)
	}
	err = enforce(report, nil, nil, minFlags{"sessions-per-GB": 40000}, 0, 0)
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Errorf("floor violation: err = %v, want below-floor failure", err)
	}
	// A metric no benchmark reports never trips.
	if err := enforce(report, nil, nil, minFlags{"widgets/op": 1}, 0, 0); err != nil {
		t.Errorf("absent metric should not trip: %v", err)
	}
	// Floors and ceilings compose on the same run.
	if err := enforce(report, nil, maxFlags{"bytes/idle-session": 40000}, minFlags{"sessions-per-GB": 20000}, 0, 0); err != nil {
		t.Errorf("composed gates should pass: %v", err)
	}

	var m minFlags = minFlags{}
	if err := m.Set("sessions-per-GB=20000"); err != nil {
		t.Fatal(err)
	}
	if m["sessions-per-GB"] != 20000 {
		t.Errorf("parsed mins = %v", m)
	}
	for _, bad := range []string{"noequals", "=5", "x=notanumber"} {
		if err := m.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
	var out strings.Builder
	if err := run([]string{"-min", "sessions-per-GB=20000"}, strings.NewReader(memOutput), &out); err != nil {
		t.Fatalf("run with -min: %v", err)
	}
	if !strings.Contains(out.String(), `"min:sessions-per-GB": 20000`) {
		t.Errorf("floor not recorded in report: %s", out.String())
	}
}

func TestRequireMetricPresence(t *testing.T) {
	// -require fails unless some benchmark reports the metric — the
	// guard against a producer whose gated numbers silently vanished
	// (ceilings pass trivially on an empty set).
	output := `BenchmarkServeLoad/closed/binary/s100 	 12800	 6400 goodput-sps	 2000000 ingest-p99-ns
`
	report, err := parse(strings.NewReader(output))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRequired(report, []string{"goodput-sps", "ingest-p99-ns"}); err != nil {
		t.Errorf("present metrics should pass: %v", err)
	}
	err = checkRequired(report, []string{"goodput-sps", "event-p99-ns"})
	if err == nil || !strings.Contains(err.Error(), "event-p99-ns") {
		t.Errorf("missing metric: err = %v, want failure naming event-p99-ns", err)
	}

	var out strings.Builder
	if err := run([]string{"-require", "goodput-sps"}, strings.NewReader(output), &out); err != nil {
		t.Fatalf("run with satisfied -require: %v", err)
	}
	out.Reset()
	err = run([]string{"-require", "nonexistent-metric"}, strings.NewReader(output), &out)
	if err == nil || !strings.Contains(err.Error(), "nonexistent-metric") {
		t.Errorf("run with unsatisfied -require: err = %v", err)
	}
	// The report is still written before the requirement check fails,
	// so the numbers that were produced remain inspectable.
	if !strings.Contains(out.String(), `"goodput-sps": 6400`) {
		t.Errorf("report not written before -require failure: %s", out.String())
	}

	var r requireFlags
	if err := r.Set(""); err == nil {
		t.Error("empty -require accepted")
	}
	if err := r.Set("a"); err != nil || r.String() != "a" {
		t.Errorf("Set: %v, String() = %q", err, r.String())
	}
}
