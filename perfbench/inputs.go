package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"sync"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
	"ptrack/internal/wire"
)

// activityMix is the paper's activity set as the workloads weight it:
// mostly pedestrian gaits, plus the interference activities the step
// counter must reject (§IV: eating, poker, photo, gaming, a mechanical
// spoofer) and idle time.
var activityMix = []struct {
	act   trace.Activity
	share float64
}{
	{trace.ActivityWalking, 0.30},
	{trace.ActivityStepping, 0.14},
	{trace.ActivityRunning, 0.14},
	{trace.ActivityEating, 0.07},
	{trace.ActivityPoker, 0.07},
	{trace.ActivityPhoto, 0.07},
	{trace.ActivityGaming, 0.07},
	{trace.ActivitySpoofing, 0.07},
	{trace.ActivityIdle, 0.07},
}

// roundScript covers seconds with stratified rounds: every round holds
// each activity of the mix once, in seeded order, for its share of
// roundS (±20%). Stratifying keeps the activity proportions — and so
// the accuracy figures — steady from seed to seed; the seed still
// decides order, durations, turns and every sensor sample.
func roundScript(rng *rand.Rand, seconds, roundS float64) []gaitsim.Segment {
	var out []gaitsim.Segment
	for t := 0.0; t < seconds; {
		for _, i := range rng.Perm(len(activityMix)) {
			m := activityMix[i]
			seg := gaitsim.Segment{Activity: m.act, Duration: m.share * roundS * (0.8 + 0.4*rng.Float64())}
			if m.act.Pedestrian() {
				seg.TurnRate = 0.2 * (rng.Float64() - 0.5)
			}
			out = append(out, seg)
			t += seg.Duration
		}
	}
	return out
}

// shortScript is a session-sized script: segments drawn from the mix by
// weight until seconds are covered.
func shortScript(rng *rand.Rand, seconds float64) []gaitsim.Segment {
	var out []gaitsim.Segment
	for t := 0.0; t < seconds; {
		x := rng.Float64()
		act := activityMix[len(activityMix)-1].act
		for _, m := range activityMix {
			if x < m.share {
				act = m.act
				break
			}
			x -= m.share
		}
		seg := gaitsim.Segment{Activity: act, Duration: 8 + 12*rng.Float64()}
		out = append(out, seg)
		t += seg.Duration
	}
	return out
}

// simulate renders a script at rate with the simulator's default
// user and sensing model.
func simulate(seed int64, rate float64, script []gaitsim.Segment) (*trace.Recording, error) {
	cfg := gaitsim.DefaultConfig()
	cfg.SampleRate = rate
	cfg.Seed = seed
	return gaitsim.Simulate(gaitsim.DefaultProfile(), cfg, script)
}

// simulateAll runs n independent simulations on up to two goroutines.
// job(i) returns the i-th seed and script; results keep index order.
func simulateAll(n int, rate float64, job func(i int) (int64, []gaitsim.Segment)) ([]*trace.Recording, error) {
	recs := make([]*trace.Recording, n)
	errs := make([]error, n)
	jobs := make([]struct {
		seed   int64
		script []gaitsim.Segment
	}, n)
	for i := range jobs {
		jobs[i].seed, jobs[i].script = job(i)
	}
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				recs[i], errs[i] = simulate(jobs[i].seed, rate, jobs[i].script)
				if errs[i] == nil {
					recs[i].Truth.Path = nil // position truth is unused; it is 24 B a sample
				}
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("simulate input %d: %w", i, err)
		}
	}
	return recs, nil
}

// concat joins recordings end to end on one continuous, uniformly
// sampled timeline (each part starts one sample interval after the
// previous one ends), shifting ground truth along with the samples.
func concat(rate float64, parts []*trace.Recording) *trace.Recording {
	total := 0
	for _, p := range parts {
		total += len(p.Trace.Samples)
	}
	out := &trace.Recording{
		Trace: &trace.Trace{SampleRate: rate, Samples: make([]trace.Sample, 0, total)},
		Truth: &trace.GroundTruth{},
	}
	dt := 1 / rate
	for i, p := range parts {
		n0 := len(out.Trace.Samples)
		off := float64(n0) * dt
		for i, s := range p.Trace.Samples {
			s.T = float64(n0+i) * dt
			out.Trace.Samples = append(out.Trace.Samples, s)
		}
		for _, sp := range p.Truth.Activities {
			sp.Start += off
			sp.End += off
			out.Truth.Activities = append(out.Truth.Activities, sp)
		}
		for _, st := range p.Truth.Steps {
			st.T += off
			out.Truth.Steps = append(out.Truth.Steps, st)
		}
		out.Truth.Distance += p.Truth.Distance
		out.Truth.ArmLength, out.Truth.LegLength = p.Truth.ArmLength, p.Truth.LegLength
		parts[i] = nil // let the part go as soon as it is copied
	}
	return out
}

// buckets is ground truth cut into the recording's activity spans, the
// unit accuracy is judged in: served steps are attributed to the span
// their cycle ended in, and the error is the sum of per-span absolute
// differences. Without this, over- and under-counts in different
// activities would cancel and the error figure would swing with the
// seed.
type buckets struct {
	ends  []float64 // span end times, ascending
	steps []float64 // true steps per span
	dist  []float64 // true distance per span
}

func newBuckets(truth *trace.GroundTruth) *buckets {
	b := &buckets{}
	for _, sp := range truth.Activities {
		b.ends = append(b.ends, sp.End)
	}
	b.steps = make([]float64, len(b.ends))
	b.dist = make([]float64, len(b.ends))
	for _, st := range truth.Steps {
		k := b.index(st.T)
		b.steps[k]++
		b.dist[k] += st.Stride
	}
	return b
}

// index returns the span containing t (the last span for t past the
// end).
func (b *buckets) index(t float64) int {
	k := sort.SearchFloat64s(b.ends, t)
	if k < len(b.ends) && b.ends[k] == t {
		k++
	}
	if k >= len(b.ends) {
		k = len(b.ends) - 1
	}
	return k
}

// accuracy accumulates served-versus-truth totals.
type accuracy struct {
	absSteps, truthSteps float64
	absDist, truthDist   float64
}

func (a *accuracy) add(servedSteps, truthSteps, servedDist, truthDist float64) {
	a.absSteps += abs(servedSteps - truthSteps)
	a.truthSteps += truthSteps
	a.absDist += abs(servedDist - truthDist)
	a.truthDist += truthDist
}

func (a *accuracy) stepPct() float64 { return 100 * a.absSteps / a.truthSteps }
func (a *accuracy) distPct() float64 { return 100 * a.absDist / a.truthDist }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Body encoders. Each appends one complete request body to dst.

func appendBinaryBody(dst []byte, samples []trace.Sample) []byte {
	dst = wire.AppendBinaryHeader(dst)
	for _, s := range samples {
		dst = wire.AppendSampleBinary(dst, s)
	}
	return dst
}

func appendNDJSONBody(dst []byte, samples []trace.Sample) []byte {
	for _, s := range samples {
		dst = wire.AppendSample(dst, s)
	}
	return dst
}

// digest hashes the request bodies a run generates, in send order, so
// two runs can be checked for byte-identical inputs.
type digest struct {
	h hash.Hash
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) { d.h.Write(b) }

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// combineDigests hashes several digests into one, in argument order.
func combineDigests(ds ...*digest) string {
	all := newDigest()
	for _, d := range ds {
		all.add(d.h.Sum(nil))
	}
	return all.String()
}
