// Command benchjson parses `go test -bench` output into a JSON report and
// optionally enforces performance ceilings, exiting non-zero when a
// benchmark breaks one. It is the machine-readable half of `make
// bench-guard`: the JSON snapshot (BENCH_stream.json) records the numbers
// a commit was gated on, and the flags are the gate.
//
// Usage:
//
//	go test . -run NONE -bench BenchmarkOnlineTracker -benchmem | \
//	    benchjson -out BENCH_stream.json \
//	    -max ns/sample=664 -max allocs/sample=0.75 -flat-within 0.20
//
// Every benchmark reporting both allocs/op and samples/op also gets a
// derived allocs/sample metric (allocs/op ÷ samples/op), which
// normalises per-op allocation counts across trace lengths.
//
// Ceilings:
//
//	-flat-within F          across all benchmarks reporting ns/sample, the
//	                        spread (max-min)/min must stay at or below F —
//	                        the flat-scaling check for the incremental
//	                        front end (requires at least two such
//	                        benchmarks).
//	-max METRIC=N           generic repeatable ceiling: every benchmark
//	                        reporting METRIC (any unit string, e.g.
//	                        "ns/sample", "allocs/sample",
//	                        "bytes/session", "ns/op") must stay at or
//	                        below N. Benchmarks not reporting METRIC are
//	                        unaffected.
//	-min METRIC=N           generic repeatable floor: every benchmark
//	                        reporting METRIC must stay at or above N —
//	                        for capacity metrics where smaller is worse
//	                        (e.g. "sessions-per-GB").
//	-require METRIC         repeatable: fail unless at least one
//	                        benchmark reports METRIC — guards against a
//	                        producer that silently emitted nothing the
//	                        gates would have checked (e.g. a loadgen run
//	                        whose every cell errored out).
//	-baseline FILE          a previously committed benchjson report to
//	                        compare against (typically the same file -out
//	                        overwrites; the baseline is read first).
//	-regress-within F       with -baseline: each benchmark's ns/sample may
//	                        exceed the same-named baseline benchmark's by
//	                        at most the fraction F — the anti-drift gate
//	                        for the tracing-overhead snapshot
//	                        (BENCH_trace.json). Benchmarks absent from the
//	                        baseline pass; a missing baseline file is
//	                        skipped so fresh snapshots can bootstrap.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// maxFlags collects repeatable -max METRIC=N ceilings.
type maxFlags map[string]float64

func (m maxFlags) String() string {
	parts := make([]string, 0, len(m))
	for k, v := range m {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	return strings.Join(parts, ",")
}

func (m maxFlags) Set(s string) error {
	metric, val, ok := strings.Cut(s, "=")
	if !ok || metric == "" {
		return fmt.Errorf("-max wants METRIC=N, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("-max %s: %w", s, err)
	}
	m[metric] = f
	return nil
}

// minFlags collects repeatable -min METRIC=N floors.
type minFlags map[string]float64

func (m minFlags) String() string { return maxFlags(m).String() }

func (m minFlags) Set(s string) error {
	metric, val, ok := strings.Cut(s, "=")
	if !ok || metric == "" {
		return fmt.Errorf("-min wants METRIC=N, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("-min %s: %w", s, err)
	}
	m[metric] = f
	return nil
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op", "ns/sample"
}

// Report is the JSON document benchjson emits.
type Report struct {
	Package    string      `json:"package,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Ceilings records the gate the run was checked against, so the
	// committed snapshot documents its own acceptance criteria.
	Ceilings map[string]float64 `json:"ceilings,omitempty"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out           = fs.String("out", "", "write the JSON report to this file (default stdout)")
		flatWithin    = fs.Float64("flat-within", 0, "max relative ns/sample spread across benchmarks (0 disables)")
		baselineFile  = fs.String("baseline", "", "committed benchjson report to compare ns/sample against")
		regressWithin = fs.Float64("regress-within", 0, "max relative ns/sample regression vs -baseline (0 disables)")
	)
	maxes := maxFlags{}
	fs.Var(maxes, "max", "repeatable METRIC=N ceiling on any reported metric")
	mins := minFlags{}
	fs.Var(mins, "min", "repeatable METRIC=N floor on any reported metric")
	var requires requireFlags
	fs.Var(&requires, "require", "repeatable METRIC that at least one benchmark must report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	// Load the baseline before any writing: -out typically overwrites
	// the very file the run is compared against.
	var baseline *Report
	if *baselineFile != "" && *regressWithin > 0 {
		buf, err := os.ReadFile(*baselineFile)
		switch {
		case os.IsNotExist(err):
			fmt.Fprintf(stdout, "benchjson: baseline %s missing, skipping regression gate\n", *baselineFile)
		case err != nil:
			return err
		default:
			baseline = &Report{}
			if err := json.Unmarshal(buf, baseline); err != nil {
				return fmt.Errorf("baseline %s: %w", *baselineFile, err)
			}
		}
	}

	report.Ceilings = map[string]float64{}
	if *flatWithin > 0 {
		report.Ceilings["flat-within"] = *flatWithin
	}
	if *regressWithin > 0 {
		report.Ceilings["regress-within"] = *regressWithin
	}
	for metric, ceiling := range maxes {
		report.Ceilings["max:"+metric] = ceiling
	}
	for metric, floor := range mins {
		report.Ceilings["min:"+metric] = floor
	}
	if len(report.Ceilings) == 0 {
		report.Ceilings = nil
	}

	// Write the report before enforcing: a failing gate should still leave
	// the numbers it failed on behind for inspection.
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	} else {
		stdout.Write(buf)
	}

	if err := checkRequired(report, requires); err != nil {
		return err
	}
	return enforce(report, baseline, maxes, mins, *flatWithin, *regressWithin)
}

// requireFlags collects repeatable -require METRIC names.
type requireFlags []string

func (r *requireFlags) String() string { return strings.Join(*r, ",") }

func (r *requireFlags) Set(s string) error {
	if s == "" {
		return fmt.Errorf("-require wants a metric name")
	}
	*r = append(*r, s)
	return nil
}

// checkRequired fails unless every -require metric appears in at least
// one benchmark — the guard against a producer whose gated metrics
// silently vanished (every ceiling trivially passes on an empty set).
func checkRequired(report *Report, requires []string) error {
	var missing []string
	for _, metric := range requires {
		found := false
		for _, b := range report.Benchmarks {
			if _, ok := b.Metrics[metric]; ok {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, metric)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required metrics missing from every benchmark: %s", strings.Join(missing, ", "))
	}
	return nil
}

func parse(r io.Reader) (*Report, error) {
	report := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg:"):
			report.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       fields[0],
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if !ok {
			continue
		}
		allocs, hasAllocs := b.Metrics["allocs/op"]
		if samples := b.Metrics["samples/op"]; hasAllocs && samples > 0 {
			b.Metrics["allocs/sample"] = allocs / samples
		}
		report.Benchmarks = append(report.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return report, nil
}

func enforce(report, baseline *Report, maxes maxFlags, mins minFlags, flatWithin, regressWithin float64) error {
	var failures []string
	baseNs := map[string]float64{}
	if baseline != nil && regressWithin > 0 {
		for _, b := range baseline.Benchmarks {
			if ns, ok := b.Metrics["ns/sample"]; ok {
				baseNs[b.Name] = ns
			}
		}
	}
	sampleMin, sampleMax := 0.0, 0.0
	nSampled := 0
	for _, b := range report.Benchmarks {
		ns, hasNs := b.Metrics["ns/sample"]
		if hasNs {
			if base, ok := baseNs[b.Name]; ok && base > 0 && ns > base*(1+regressWithin) {
				failures = append(failures, fmt.Sprintf(
					"%s: %.1f ns/sample regressed %.1f%% past baseline %.1f (allowed %.1f%%)",
					b.Name, ns, 100*(ns/base-1), base, 100*regressWithin))
			}
			if nSampled == 0 || ns < sampleMin {
				sampleMin = ns
			}
			if nSampled == 0 || ns > sampleMax {
				sampleMax = ns
			}
			nSampled++
		}
		for _, metric := range sortedKeys(maxes) {
			if v, ok := b.Metrics[metric]; ok && v > maxes[metric] {
				failures = append(failures, fmt.Sprintf(
					"%s: %g %s exceeds ceiling %g", b.Name, v, metric, maxes[metric]))
			}
		}
		for _, metric := range sortedKeys(maxFlags(mins)) {
			if v, ok := b.Metrics[metric]; ok && v < mins[metric] {
				failures = append(failures, fmt.Sprintf(
					"%s: %g %s below floor %g", b.Name, v, metric, mins[metric]))
			}
		}
	}
	if flatWithin > 0 {
		if nSampled < 2 {
			failures = append(failures, fmt.Sprintf(
				"flat-within needs >=2 benchmarks reporting ns/sample, got %d", nSampled))
		} else if spread := (sampleMax - sampleMin) / sampleMin; spread > flatWithin {
			failures = append(failures, fmt.Sprintf(
				"ns/sample spread %.1f%% (%.1f..%.1f) exceeds flat-within %.1f%%",
				100*spread, sampleMin, sampleMax, 100*flatWithin))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("performance ceilings violated:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func sortedKeys(m maxFlags) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
