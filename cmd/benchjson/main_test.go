package main

import (
	"fmt"
	"slices"
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
	report, _, err := parse(strings.NewReader(sampleOutput))
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
	noSamples, _, _ := parse(strings.NewReader("BenchmarkX 	 10	 100 ns/op	 3 allocs/op\n"))
	if _, ok := noSamples.Benchmarks[0].Metrics["allocs/sample"]; ok {
		t.Error("allocs/sample derived without samples/op")
	}
}

func TestEnforcePasses(t *testing.T) {
	report, _, _ := parse(strings.NewReader(sampleOutput))
	ceilings := maxFlags{"ns/sample": 664, "allocs/sample": 0.75}
	if err := enforce(report, ceilings, nil); err != nil {
		t.Errorf("ceilings should pass: %v", err)
	}
}

func TestEnforceCatchesViolations(t *testing.T) {
	report, _, _ := parse(strings.NewReader(sampleOutput))
	cases := []struct {
		name         string
		maxes        maxFlags
		wantFragment string
	}{
		{"ns-per-sample", maxFlags{"ns/sample": 500}, "ns/sample exceeds"},
		{"allocs-per-sample", maxFlags{"allocs/sample": 0.3}, "allocs/sample exceeds"},
	}
	for _, c := range cases {
		err := enforce(report, c.maxes, nil)
		if err == nil || !strings.Contains(err.Error(), c.wantFragment) {
			t.Errorf("%s: err = %v, want fragment %q", c.name, err, c.wantFragment)
		}
	}
}

func TestGenericMaxCeilings(t *testing.T) {
	// The state-snapshot benchmarks report custom metrics the dedicated
	// flags know nothing about; -max METRIC=N gates any of them.
	stateOutput := `pkg: ptrack/internal/stream
BenchmarkSnapshot/plain 	 50000	 20484 ns/op	 57726 bytes/session	 0 B/op	 0 allocs/op
BenchmarkSnapshot/full 	 50000	 22064 ns/op	 59499 bytes/session	 1912 B/op	 8 allocs/op
`
	report, _, err := parse(strings.NewReader(stateOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := enforce(report, maxFlags{"bytes/session": 65536, "ns/op": 1e6}, nil); err != nil {
		t.Errorf("generous generic ceilings should pass: %v", err)
	}
	err = enforce(report, maxFlags{"bytes/session": 58000}, nil)
	if err == nil || !strings.Contains(err.Error(), "bytes/session exceeds") {
		t.Errorf("bytes ceiling: err = %v, want bytes/session violation", err)
	}
	// Only the offender is named.
	if err != nil && strings.Contains(err.Error(), "plain") {
		t.Errorf("benchmark under the ceiling flagged: %v", err)
	}
	// A metric no benchmark reports never trips.
	if err := enforce(report, maxFlags{"widgets/op": 1}, nil); err != nil {
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

func TestGenericMinFloors(t *testing.T) {
	// Capacity metrics invert the comparison: smaller is worse. -min
	// METRIC=N fails any benchmark reporting METRIC below N.
	memOutput := `pkg: ptrack/internal/engine
BenchmarkIdleSessionFootprint 	 1	 1117400041 ns/op	 32549 bytes/idle-session	 32989 sessions-per-GB
`
	report, _, err := parse(strings.NewReader(memOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := enforce(report, nil, minFlags{"sessions-per-GB": 20000}); err != nil {
		t.Errorf("generous floor should pass: %v", err)
	}
	err = enforce(report, nil, minFlags{"sessions-per-GB": 40000})
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Errorf("floor violation: err = %v, want below-floor failure", err)
	}
	// A metric no benchmark reports never trips.
	if err := enforce(report, nil, minFlags{"widgets/op": 1}); err != nil {
		t.Errorf("absent metric should not trip: %v", err)
	}
	// Floors and ceilings compose on the same run.
	if err := enforce(report, maxFlags{"bytes/idle-session": 40000}, minFlags{"sessions-per-GB": 20000}); err != nil {
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
	report, _, err := parse(strings.NewReader(output))
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

// pairedInput renders runs the way scripts/benchpair.sh does: pairs of
// `side:` blocks, alternating which side goes first. A nil side is left
// out, as for a benchmark absent from that side's tree.
func pairedInput(name string, base, cand []float64) string {
	var b strings.Builder
	side := func(s string, vals []float64, i int) {
		fmt.Fprintf(&b, "side: %s\n", s)
		if vals != nil {
			fmt.Fprintf(&b, "%s \t 20\t %g ns/op\t %g ns/sample\t 6000 samples/op\t 2 allocs/op\n", name, vals[i]*6000, vals[i])
		}
	}
	for i := range max(len(base), len(cand)) {
		if i%2 == 0 {
			side("base", base, i)
			side("candidate", cand, i)
		} else {
			side("candidate", cand, i)
			side("base", base, i)
		}
	}
	return b.String()
}

func scaled(x []float64, f float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v * f
	}
	return out
}

// TestPairedGate pins the paired statistic: each side's fastest run,
// the bound max(minRegression, the base's fastest-to-lower-quartile
// spread), and the lost-most-pairs condition.
func TestPairedGate(t *testing.T) {
	// Ten runs of a quiet base: fastest 100, lower quartile ~100.7.
	tight := []float64{103, 100, 101, 112, 100.5, 104, 100.8, 131, 102, 100.2}
	// A base that was rarely quiet: lower quartile 12% above its fastest.
	wide := []float64{100, 140, 118, 125, 112, 150, 113, 119, 135, 121}
	cases := []struct {
		name       string
		base, cand []float64
		wantErr    string // "" passes
		wantRow    string
	}{
		{"identical", tight, tight, "", "ok"},
		{"10% slower, tight base", tight, scaled(tight, 1.10), "slower than the base", "SLOWER"},
		{"4% slower, tight base", tight, scaled(tight, 1.04), "", "ok"},
		{"6% slower, tight base", tight, scaled(tight, 1.06), "slower than the base", "SLOWER"},
		{"5% slower, wide base", wide, scaled(wide, 1.05), "", "ok"},
		{"8% slower, tight base", tight, scaled(tight, 1.08), "slower than the base", "SLOWER"},
		{"8% slower, wide base", wide, scaled(wide, 1.08), "", "ok"},
		// The candidate's fastest run is 10% slower, but it won half the
		// pairs: the base was the noisier side, not the candidate slower.
		{"lost only half",
			[]float64{100, 120, 101, 125, 100.5, 130, 100.8, 128, 102, 122},
			[]float64{110, 115, 111, 115, 110.5, 116, 110.8, 118, 112, 116}, "", "ok"},
		{"missing from base", nil, tight, "", "new: no base"},
		{"missing from candidate", tight, nil, "missing from the candidate", "MISSING"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(nil, strings.NewReader(pairedInput("BenchmarkOnlineTracker", c.base, c.cand)), &out)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: gate failed: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
		if !strings.Contains(out.String(), c.wantRow) {
			t.Errorf("%s: table lacks verdict %q:\n%s", c.name, c.wantRow, out.String())
		}
	}

	// The report keeps each side's fastest run, and the absolute gates
	// apply to the candidate's.
	var out strings.Builder
	if err := run([]string{"-max", "allocs/sample=0.01"},
		strings.NewReader(pairedInput("BenchmarkX", tight, tight)), &out); err != nil {
		t.Fatalf("paired run with a met ceiling: %v", err)
	}
	for _, want := range []string{`"base": [`, `"ns/sample": 100,`, `"verdict": "ok"`, `"lost": 0`, `"pairs": 10`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("paired report lacks %s:\n%s", want, out.String())
		}
	}
	err := run([]string{"-max", "allocs/sample=0.0001"},
		strings.NewReader(pairedInput("BenchmarkX", tight, tight)), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "allocs/sample exceeds") {
		t.Errorf("paired run past an alloc ceiling: err = %v", err)
	}
	if err := run(nil, strings.NewReader("side: other\n"), &strings.Builder{}); err == nil {
		t.Error("unknown side accepted")
	}
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		x    []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},          // odd count: the middle run
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},     // even count: mean of the middle two
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},   // lower quartile on an order statistic
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},   // and between two
		{[]float64{7}, 0.25, 7},               // one run
		{[]float64{2, 2, 2, 2, 2, 2}, 0.5, 2}, // ties
	}
	for _, c := range cases {
		in := slices.Clone(c.x)
		if got := quantile(c.x, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.x, c.p, got, c.want)
		}
		if !slices.Equal(in, c.x) {
			t.Errorf("quantile reordered its input: %v", c.x)
		}
	}
}
