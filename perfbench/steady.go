package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// steadiness runs one workload n times with consecutive seeds and
// reports, per end-to-end metric, the median, the quartiles (as
// Python's statistics.quantiles computes them), the interquartile
// spread as a share of the median, and the worst single run's deviation
// from the median — each against the metric's bound in BENCHMARK.json
// when that file is in the working directory.
func steadiness(name string, drive func(*env) (*outcome, error), n int, mk func(i int) *env, w io.Writer) error {
	bounds := readBounds("BENCHMARK.json")
	vals := map[string][]float64{}
	digests := map[string]int64{}
	for i := 0; i < n; i++ {
		e := mk(i)
		o, err := drive(e)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, e.seed, err)
		}
		if o.invalid != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, e.seed, o.invalid)
		}
		if prev, dup := digests[o.digest]; dup {
			return fmt.Errorf("seeds %d and %d generated identical inputs (digest %s)", prev, e.seed, o.digest)
		}
		digests[o.digest] = e.seed
		fmt.Fprintf(w, "run %d seed %d digest %s attempted %d failed %d |", i, e.seed, o.digest, o.attempted, o.failed)
		for _, d := range e2eMetrics {
			fmt.Fprintf(w, " %s=%.4g", d.name, o.e2e[d.name])
		}
		fmt.Fprintf(w, " lag_p99=%.4g\n", o.layers["loadgen.send_lag_p99_ms"])
		for _, f := range o.failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, d := range e2eMetrics {
			vals[d.name] = append(vals[d.name], o.e2e[d.name])
		}
	}
	fmt.Fprintf(w, "%s: %d runs\n", name, n)
	fmt.Fprintf(w, "%-26s %14s %14s %14s %8s %8s %6s  %s\n", "metric", "median", "q1", "q3", "spread", "worst", "bound", "verdict")
	for _, d := range e2eMetrics {
		vs := vals[d.name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := (q3 - q1) / med
		worst := 0.0
		for _, v := range vs {
			worst = math.Max(worst, math.Abs(v-med)/med)
		}
		verdict := ""
		if b, ok := bounds[d.name]; ok {
			switch {
			case d.name == "setup_s":
				verdict = "spread not gated"
			case spread <= b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound, above a third of it"
			default:
				verdict = "TOO NOISY"
			}
			fmt.Fprintf(w, "%-26s %14.4f %14.4f %14.4f %8.4f %8.4f %6.2f  %s\n", d.name, med, q1, q3, spread, worst, b, verdict)
			continue
		}
		fmt.Fprintf(w, "%-26s %14.4f %14.4f %14.4f %8.4f %8.4f %6s\n", d.name, med, q1, q3, spread, worst, "-")
	}
	return nil
}

// readBounds returns each end-to-end metric's bound from a
// BENCHMARK.json, or an empty map when the file is absent or unreadable.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var bm struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &bm) != nil {
		return out
	}
	for _, m := range bm.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
