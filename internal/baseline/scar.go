package baseline

import (
	"fmt"
	"math"
	"sort"

	"ptrack/internal/dsp"
	"ptrack/internal/imu"
	"ptrack/internal/trace"
)

// scarFeatureCount is the dimensionality of the SCAR feature vector.
const scarFeatureCount = 10

// scarWindowS is the SCAR classification window, seconds.
const scarWindowS = 2.5

// SCAR is a windowed statistical-feature activity classifier in the style
// of Dernbach et al. [18]: labeled training data, per-class feature
// centroids, nearest-centroid classification. Steps are only counted in
// windows classified as a pedestrian activity — so it beats plain peak
// counters on *trained* interference but fails on activities outside its
// training set (the paper withholds "Photo" to show this; Fig. 7(a)).
type SCAR struct {
	classes   []trace.Activity
	centroids [][]float64
	scale     []float64 // per-feature normalisation (std across training)
}

// NewSCAR trains the classifier on labeled recordings. Each training
// entry maps an activity to one or more traces of that activity. Windows
// classified as a pedestrian activity count steps with GFitConfig.
func NewSCAR(training map[trace.Activity][]*trace.Trace) (*SCAR, error) {
	if len(training) == 0 {
		return nil, fmt.Errorf("baseline: SCAR needs training data")
	}
	s := &SCAR{}

	type sample struct {
		class int
		feats []float64
	}
	var all []sample

	// Deterministic class order.
	for a := range training {
		s.classes = append(s.classes, a)
	}
	sort.Slice(s.classes, func(i, j int) bool { return s.classes[i] < s.classes[j] })

	for ci, a := range s.classes {
		for _, tr := range training[a] {
			for _, f := range s.windowFeatures(tr) {
				all = append(all, sample{class: ci, feats: f})
			}
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("baseline: SCAR training produced no feature windows")
	}

	// Per-feature scale for normalised distances.
	s.scale = make([]float64, scarFeatureCount)
	for d := 0; d < scarFeatureCount; d++ {
		col := make([]float64, len(all))
		for i, smp := range all {
			col[i] = smp.feats[d]
		}
		sd := dsp.StdDev(col)
		if sd < 1e-9 {
			sd = 1
		}
		s.scale[d] = sd
	}

	// Class centroids.
	s.centroids = make([][]float64, len(s.classes))
	counts := make([]int, len(s.classes))
	for i := range s.centroids {
		s.centroids[i] = make([]float64, scarFeatureCount)
	}
	for _, smp := range all {
		for d, v := range smp.feats {
			s.centroids[smp.class][d] += v
		}
		counts[smp.class]++
	}
	for ci := range s.centroids {
		if counts[ci] == 0 {
			return nil, fmt.Errorf("baseline: SCAR class %v has no training windows", s.classes[ci])
		}
		for d := range s.centroids[ci] {
			s.centroids[ci][d] /= float64(counts[ci])
		}
	}
	return s, nil
}

// Classes returns the trained class set in classification order.
func (s *SCAR) Classes() []trace.Activity {
	out := make([]trace.Activity, len(s.classes))
	copy(out, s.classes)
	return out
}

// CountSteps classifies each window and counts steps only in windows
// labeled as a pedestrian activity.
func (s *SCAR) CountSteps(tr *trace.Trace) int {
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return 0
	}
	win := int(scarWindowS * tr.SampleRate)
	if win < 8 {
		return 0
	}
	total := 0
	for start := 0; start+win <= len(tr.Samples); start += win {
		sub := &trace.Trace{
			SampleRate: tr.SampleRate,
			Samples:    tr.Samples[start : start+win],
		}
		a := s.classifyWindowTrace(sub)
		if a.Pedestrian() {
			total += CountSteps(sub, GFitConfig())
		}
	}
	return total
}

// Classify labels a whole trace by majority vote over its windows.
func (s *SCAR) Classify(tr *trace.Trace) trace.Activity {
	if tr == nil || len(tr.Samples) == 0 || tr.SampleRate <= 0 {
		return trace.ActivityUnknown
	}
	win := int(scarWindowS * tr.SampleRate)
	if win < 8 || win > len(tr.Samples) {
		win = len(tr.Samples)
	}
	votes := make(map[trace.Activity]int)
	for start := 0; start+win <= len(tr.Samples); start += win {
		sub := &trace.Trace{SampleRate: tr.SampleRate, Samples: tr.Samples[start : start+win]}
		votes[s.classifyWindowTrace(sub)]++
	}
	best, bestN := trace.ActivityUnknown, 0
	for a, n := range votes {
		if n > bestN {
			best, bestN = a, n
		}
	}
	return best
}

func (s *SCAR) classifyWindowTrace(tr *trace.Trace) trace.Activity {
	feats := features(tr)
	bestClass, bestDist := 0, math.Inf(1)
	for ci, c := range s.centroids {
		d := 0.0
		for k := 0; k < scarFeatureCount; k++ {
			diff := (feats[k] - c[k]) / s.scale[k]
			d += diff * diff
		}
		if d < bestDist {
			bestDist = d
			bestClass = ci
		}
	}
	return s.classes[bestClass]
}

// windowFeatures slices a trace into classification windows and extracts
// features from each.
func (s *SCAR) windowFeatures(tr *trace.Trace) [][]float64 {
	if tr == nil || tr.SampleRate <= 0 {
		return nil
	}
	win := int(scarWindowS * tr.SampleRate)
	if win < 8 {
		return nil
	}
	var out [][]float64
	for start := 0; start+win <= len(tr.Samples); start += win {
		sub := &trace.Trace{SampleRate: tr.SampleRate, Samples: tr.Samples[start : start+win]}
		out = append(out, features(sub))
	}
	return out
}

// features extracts the SCAR feature vector from one window: statistical
// moments, energy, dominant frequency, periodicity and axis-correlation
// descriptors — the feature family of [18].
func features(tr *trace.Trace) []float64 {
	x, y, z := tr.AccelSeries()
	n := len(x)
	mag := make([]float64, n)
	for i := 0; i < n; i++ {
		mag[i] = math.Sqrt(x[i]*x[i]+y[i]*y[i]+z[i]*z[i]) - imu.StandardGravity
	}
	magD := dsp.RemoveMean(mag)

	domFreq := dsp.DominantFrequency(mag, tr.SampleRate, 0.3, 6)
	// One kernel serves both the dominant-lag sweep and the periodicity
	// readout at the winning lag, instead of sweeping the lags naively and
	// then recomputing the correlation a second time.
	var k dsp.LagCorrelator
	k.ResetAuto(magD)
	lag := k.DominantLag(int(0.2*tr.SampleRate), int(1.5*tr.SampleRate), 0.2)
	periodicity := 0.0
	if lag > 0 {
		periodicity, _ = k.At(lag)
	}
	zc := float64(len(dsp.ZeroCrossings(magD))) / math.Max(1, float64(n))

	min, max := dsp.MinMax(magD)
	return []float64{
		dsp.Mean(mag),
		dsp.StdDev(mag),
		dsp.Energy(magD),
		domFreq,
		periodicity,
		zc,
		max - min,
		dsp.Pearson(x, z),
		dsp.Pearson(y, z),
		dsp.MeanAbs(magD),
	}
}
