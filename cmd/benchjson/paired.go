package main

import (
	"cmp"
	"fmt"
	"io"
	"slices"
)

// minRegression is the smallest slowdown the paired gate reports. On a
// 2-vCPU VM, the fastest-run ratio of two identical tracker binaries
// stayed within 0.97–1.02 over 20 pairs while the host was quiet, and a
// deliberate 10% slowdown of the tracker read 1.07–1.12 in ten runs; 5%
// lies between the two. While the host is busy the base's own spread,
// not this floor, sets the bound.
const minRegression = 0.05

// Verdicts of a paired comparison.
const (
	verdictPass    = "ok"
	verdictSlower  = "SLOWER"
	verdictNew     = "new: no base"
	verdictMissing = "MISSING"
)

// Comparison is one benchmark's paired result: each side's fastest run
// in the timing unit, their ratio, the bound the ratio was held to and
// the pairs the candidate lost.
type Comparison struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Base      float64 `json:"base,omitempty"`
	Candidate float64 `json:"candidate,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"`
	Bound     float64 `json:"bound,omitempty"`
	Lost      int     `json:"lost"`
	Pairs     int     `json:"pairs"`
	Verdict   string  `json:"verdict"`
}

// timingUnit is the unit a benchmark's runs are compared in: ns/sample
// where it reports one, since that normalises across trace lengths,
// else ns/op.
func timingUnit(b Benchmark) string {
	if _, ok := b.Metrics["ns/sample"]; ok {
		return "ns/sample"
	}
	return "ns/op"
}

// byName groups runs by benchmark name, in order of first appearance.
func byName(runs []Benchmark) (names []string, groups map[string][]Benchmark) {
	groups = map[string][]Benchmark{}
	for _, b := range runs {
		if _, ok := groups[b.Name]; !ok {
			names = append(names, b.Name)
		}
		groups[b.Name] = append(groups[b.Name], b)
	}
	return names, groups
}

// fastest keeps each benchmark's fastest run in its timing unit.
func fastest(runs []Benchmark) []Benchmark {
	names, groups := byName(runs)
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		g := groups[name]
		unit := timingUnit(g[0])
		out = append(out, slices.MinFunc(g, func(a, b Benchmark) int {
			return cmp.Compare(a.Metrics[unit], b.Metrics[unit])
		}))
	}
	return out
}

// compare gates the candidate's runs against the base's, benchmark by
// benchmark; the i-th run of a benchmark on one side pairs with the
// i-th run on the other.
func compare(base, candidate []Benchmark) []Comparison {
	candNames, cands := byName(candidate)
	baseNames, bases := byName(base)
	var out []Comparison
	for _, name := range candNames {
		unit := timingUnit(cands[name][0])
		cv := values(cands[name], unit)
		c := Comparison{Name: name, Unit: unit, Candidate: slices.Min(cv)}
		if _, ok := bases[name]; !ok {
			c.Verdict = verdictNew
			out = append(out, c)
			continue
		}
		out = append(out, judge(c, values(bases[name], unit), cv))
	}
	for _, name := range baseNames {
		if _, ok := cands[name]; !ok {
			unit := timingUnit(bases[name][0])
			out = append(out, Comparison{Name: name, Unit: unit,
				Base: slices.Min(values(bases[name], unit)), Verdict: verdictMissing})
		}
	}
	return out
}

// judge applies the paired rule to one benchmark's base and candidate
// values: the candidate fails when it lost most pairs and its fastest
// run exceeds the base's by more than the bound, the larger of
// minRegression and the base's own spread from its fastest run to its
// lower quartile (a base whose fastest run stands alone is a less
// certain yardstick).
func judge(c Comparison, base, cand []float64) Comparison {
	c.Pairs = min(len(base), len(cand))
	for i := 0; i < c.Pairs; i++ {
		if cand[i] > base[i] {
			c.Lost++
		}
	}
	c.Base = slices.Min(base)
	c.Ratio = c.Candidate / c.Base
	c.Bound = max(minRegression, quantile(base, 0.25)/c.Base-1)
	c.Verdict = verdictPass
	if 2*c.Lost > c.Pairs && c.Ratio > 1+c.Bound {
		c.Verdict = verdictSlower
	}
	return c
}

func values(runs []Benchmark, unit string) []float64 {
	v := make([]float64, 0, len(runs))
	for _, b := range runs {
		v = append(v, b.Metrics[unit])
	}
	return v
}

// quantile returns the p-quantile of x by linear interpolation between
// order statistics (the rule of R's default type 7 and numpy's
// default), so the 0.5-quantile of an even count is the mean of the
// middle two.
func quantile(x []float64, p float64) float64 {
	s := slices.Clone(x)
	slices.Sort(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func printComparison(w io.Writer, rows []Comparison) {
	fmt.Fprintf(w, "%-44s %11s %11s %7s %7s %6s  %s\n",
		"benchmark (fastest run)", "base", "candidate", "ratio", "bound", "lost", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-44s %11.1f %11.1f %7.3f %6.1f%% %3d/%-2d  %s\n",
			c.Name+" "+c.Unit, c.Base, c.Candidate, c.Ratio, 100*c.Bound, c.Lost, c.Pairs, c.Verdict)
	}
}
