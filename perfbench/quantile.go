package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many recorded values must rank above a reported
// upper percentile for that percentile to mean anything: p99 of fewer
// than 1000 values is the maximum in disguise.
const minBeyond = 10

// sampleSet keeps every recorded value of one timing so quantiles are
// exact order statistics, not histogram-bucket estimates. Not safe for
// concurrent use; each recorder owns its sets.
type sampleSet struct {
	vals   []float64
	sorted bool
}

func (s *sampleSet) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sampleSet) merge(o *sampleSet) {
	s.vals = append(s.vals, o.vals...)
	s.sorted = false
}

func (s *sampleSet) n() int { return len(s.vals) }

// quantile returns the nearest-rank q-quantile (the value at rank
// ceil(q·n), 1-based) and how many values rank above it. An empty set
// reports NaN.
func (s *sampleSet) quantile(q float64) (v float64, beyond int) {
	n := len(s.vals)
	if n == 0 {
		return math.NaN(), 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.vals[rank-1], n - rank
}

// timing is one reported latency summary: p50 and p99 with the sample
// count and the count ranked beyond p99.
type timing struct {
	Name     string
	N        int
	P50, P99 float64
	Beyond   int
}

// summarize computes a timing and refuses one whose p99 rests on fewer
// than minBeyond values above it.
func summarize(name string, s *sampleSet) (timing, error) {
	t := timing{Name: name, N: s.n()}
	t.P50, _ = s.quantile(0.50)
	t.P99, t.Beyond = s.quantile(0.99)
	if t.Beyond < minBeyond {
		return t, fmt.Errorf("%s: p99 has %d samples beyond it (n=%d), need at least %d",
			name, t.Beyond, t.N, minBeyond)
	}
	return t, nil
}

// median returns the middle value of vs (mean of the two middle values
// for even lengths); NaN for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of vs by the same
// method as Python's statistics.quantiles(vs, n=4) (the "exclusive"
// method), so the steadiness report matches how the spread is judged.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		if n == 1 {
			return vs[0], vs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
