// Command benchjson parses `go test -bench` output into a JSON report and
// gates it, exiting non-zero when a benchmark breaks a gate. It is the
// machine-readable half of `make bench-guard`: the JSON snapshots
// (BENCH_*.json) record the numbers a commit was gated on.
//
// Usage:
//
//	go test ./internal/engine -run NONE -bench BenchmarkIdleSessionFootprint -benchtime 1x | \
//	    benchjson -out BENCH_mem.json -max bytes/idle-session=49152
//
//	scripts/benchpair.sh "$(git merge-base HEAD main)" . BenchmarkOnlineTracker 20x \
//	    -out BENCH_stream.json -max allocs/sample=0.05
//
// Every benchmark reporting both allocs/op and samples/op also gets a
// derived allocs/sample metric (allocs/op ÷ samples/op), which
// normalises per-op allocation counts across trace lengths.
//
// Absolute gates, for metrics that are deterministic (allocations,
// bytes, the seeded accuracy figures) or that catch collapse rather
// than drift (serving capacity):
//
//	-max METRIC=N           generic repeatable ceiling: every benchmark
//	                        reporting METRIC (any unit string, e.g.
//	                        "allocs/sample", "bytes/session") must stay
//	                        at or below N. Benchmarks not reporting
//	                        METRIC are unaffected.
//	-min METRIC=N           generic repeatable floor: every benchmark
//	                        reporting METRIC must stay at or above N —
//	                        for capacity metrics where smaller is worse
//	                        (e.g. "sessions-per-GB").
//	-require METRIC         repeatable: fail unless at least one
//	                        benchmark reports METRIC — guards against a
//	                        producer that silently emitted nothing the
//	                        gates would have checked (e.g. a loadgen run
//	                        whose every cell errored out).
//
// The paired timing gate. Time is not gated against a fixed number:
// on a shared host the same binary's speed moves by a third within
// minutes. Instead scripts/benchpair.sh runs the merge base and the
// working tree as interleaved pairs and writes a `side: base` or
// `side: candidate` line before each run; input with such lines is
// compared side against side. For every benchmark it takes the timing
// unit (ns/sample where the benchmark reports it, else ns/op), and:
//
//   - represents each side by its fastest run. Load from other tenants
//     only ever adds time, so the fastest of N runs is the one that
//     noise disturbed least (Chen and Revels, "Robust benchmarking in
//     noisy environments", 2016);
//   - counts the pairs the candidate lost (its i-th run slower than the
//     base's i-th run);
//   - fails the candidate when it lost most pairs and its fastest run
//     is slower than the base's by more than the bound: the larger of
//     minRegression and the base's own spread, the distance from its
//     fastest run to its lower quartile.
//
// It prints one row per benchmark. A benchmark missing from the base
// passes with a note; one missing from the candidate fails, as -require
// would. The JSON report keeps each side's fastest run (benchmarks for
// the candidate, base for the base) and the comparison rows, and the
// absolute gates apply to the candidate's fastest runs.
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
	// Base holds the merge base's fastest runs, and Paired the
	// comparison the candidate was gated on, when the input was paired.
	Base   []Benchmark  `json:"base,omitempty"`
	Paired []Comparison `json:"paired,omitempty"`
	// Ceilings records the gate the run was checked against, so the
	// committed snapshot documents its own acceptance criteria.
	Ceilings map[string]float64 `json:"ceilings,omitempty"`
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	maxes := maxFlags{}
	fs.Var(maxes, "max", "repeatable METRIC=N ceiling on any reported metric")
	mins := minFlags{}
	fs.Var(mins, "min", "repeatable METRIC=N floor on any reported metric")
	var requires requireFlags
	fs.Var(&requires, "require", "repeatable METRIC that at least one benchmark must report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report, base, err := parse(stdin)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 && len(base) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	if base != nil {
		report.Paired = compare(base, report.Benchmarks)
		report.Base = fastest(base)
		report.Benchmarks = fastest(report.Benchmarks)
		printComparison(stdout, report.Paired)
	}

	report.Ceilings = map[string]float64{}
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
	return enforce(report, maxes, mins)
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

// parse reads `go test -bench` output. Results under a `side: base`
// line are returned apart, as the base's runs; every other result, under
// `side: candidate` or under no side line, goes into the report. base is
// nil unless the input named a side.
func parse(r io.Reader) (report *Report, base []Benchmark, err error) {
	report = &Report{}
	side := ""
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
		case strings.HasPrefix(line, "side:"):
			side = strings.TrimSpace(strings.TrimPrefix(line, "side:"))
			if side != "base" && side != "candidate" {
				return nil, nil, fmt.Errorf("unknown side %q", side)
			}
			if base == nil {
				base = []Benchmark{}
			}
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
		if side == "base" {
			base = append(base, b)
		} else {
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return report, base, nil
}

func enforce(report *Report, maxes maxFlags, mins minFlags) error {
	var failures []string
	for _, c := range report.Paired {
		switch c.Verdict {
		case verdictSlower:
			failures = append(failures, fmt.Sprintf(
				"%s: fastest %g %s is %.1f%% slower than the base's %g (bound %.1f%%, lost %d of %d pairs)",
				c.Name, c.Candidate, c.Unit, 100*(c.Ratio-1), c.Base, 100*c.Bound, c.Lost, c.Pairs))
		case verdictMissing:
			failures = append(failures, fmt.Sprintf("%s: in the base but missing from the candidate", c.Name))
		}
	}
	for _, b := range report.Benchmarks {
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
	if len(failures) > 0 {
		return fmt.Errorf("performance gates violated:\n  %s", strings.Join(failures, "\n  "))
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
