package ptrack

// Benchmark harness: one benchmark per paper figure (regenerating its
// data on the synthetic substrate and reporting the headline values as
// custom metrics), plus ablation benches for the design choices called
// out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers are reported via b.ReportMetric; the tables
// themselves are printed by cmd/ptrack-eval.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ptrack/internal/core"
	"ptrack/internal/deadreckon"
	"ptrack/internal/dsp"
	"ptrack/internal/engine"
	"ptrack/internal/eval"
	"ptrack/internal/gaitid"
	"ptrack/internal/gaitsim"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// benchOpts keeps per-iteration cost moderate; the shapes are unchanged.
func benchOpts() eval.Options {
	return eval.Options{Seed: 1, Users: 3, DurationScale: 0.5}
}

func BenchmarkFig1aOvercount(b *testing.B) {
	var worst int
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig1aOvercount(benchOpts())
		worst = 0
		for _, rounds := range res.Miscounts {
			for _, devices := range rounds {
				for _, n := range devices {
					if n > worst {
						worst = n
					}
				}
			}
		}
	}
	b.ReportMetric(float64(worst), "worst-miscounts")
}

func BenchmarkFig1bOvercountMobile(b *testing.B) {
	var worst int
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig1bOvercountMobile(benchOpts())
		worst = 0
		for _, counts := range res.Miscounts {
			for _, n := range counts {
				if n > worst {
					worst = n
				}
			}
		}
	}
	b.ReportMetric(float64(worst), "worst-miscounts")
}

func BenchmarkFig1cSpoof(b *testing.B) {
	var watch int
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig1cSpoof(benchOpts())
		watch = res.Watch
	}
	b.ReportMetric(float64(watch), "spoofed-ticks")
}

func BenchmarkFig1dNaiveStride(b *testing.B) {
	var meanErr float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig1dNaiveStride(benchOpts())
		var sum float64
		var n int
		for _, errs := range res.Errors {
			for _, e := range errs {
				sum += e
				n++
			}
		}
		meanErr = sum / float64(n)
	}
	b.ReportMetric(meanErr, "mean-err-m")
}

func BenchmarkFig3CriticalPoints(b *testing.B) {
	var walkOffset float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig3CriticalPoints(benchOpts())
		for _, s := range res.Series {
			if s.Activity == trace.ActivityWalking {
				walkOffset = s.Offset
			}
		}
	}
	b.ReportMetric(walkOffset, "walking-offset")
}

func BenchmarkFig6aAccuracy(b *testing.B) {
	var ptrackWalk float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig6aAccuracy(benchOpts())
		ptrackWalk = res.Accuracy["walking"]["PTrack"]
	}
	b.ReportMetric(ptrackWalk, "ptrack-walk-acc")
}

func BenchmarkFig6bBreakdown(b *testing.B) {
	var misID float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig6bBreakdown(benchOpts())
		misID = res.MisID["walking"]
	}
	b.ReportMetric(misID, "walk-misid-pct")
}

func BenchmarkFig7aInterference(b *testing.B) {
	var ptrackWorst int
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig7aInterference(benchOpts())
		ptrackWorst = 0
		for _, m := range res.Miscounts {
			if m["PTrack"] > ptrackWorst {
				ptrackWorst = m["PTrack"]
			}
		}
	}
	b.ReportMetric(float64(ptrackWorst), "ptrack-worst")
}

func BenchmarkFig7bSpoof(b *testing.B) {
	var gfit, ptk int
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig7bSpoof(benchOpts())
		gfit, ptk = res.Counts["GFit"], res.Counts["PTrack"]
	}
	b.ReportMetric(float64(gfit), "gfit-spoofed")
	b.ReportMetric(float64(ptk), "ptrack-spoofed")
}

func BenchmarkFig8aStrideCDF(b *testing.B) {
	var ptrackMean, mtageMean float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig8aStrideCDF(benchOpts())
		ptrackMean = dsp.Mean(res.PTrackErrors)
		mtageMean = dsp.Mean(res.MontageErrors)
	}
	b.ReportMetric(ptrackMean, "ptrack-err-m")
	b.ReportMetric(mtageMean, "mtage-err-m")
}

func BenchmarkFig8bSelfTraining(b *testing.B) {
	var autoMean, manualMean float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig8bSelfTraining(benchOpts())
		autoMean = dsp.Mean(res.AutomaticErrors)
		manualMean = dsp.Mean(res.ManualErrors)
	}
	b.ReportMetric(autoMean, "auto-err-m")
	b.ReportMetric(manualMean, "manual-err-m")
}

func BenchmarkFig9Navigation(b *testing.B) {
	var dist float64
	for i := 0; i < b.N; i++ {
		_, res := eval.Fig9Navigation(eval.Options{Seed: 1, Users: 1, DurationScale: 1})
		dist = res.PTrackDist
	}
	b.ReportMetric(dist, "ptrack-dist-m")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationDelta sweeps the offset threshold δ and reports the
// resulting walking accuracy and interference leakage — the sensitivity
// the paper defers to future work ("adaptively tune the threshold δ").
func BenchmarkAblationDelta(b *testing.B) {
	user := gaitsim.DefaultProfile()
	walkCfg := gaitsim.DefaultConfig()
	walk, err := gaitsim.SimulateActivity(user, walkCfg, trace.ActivityWalking, 60)
	if err != nil {
		b.Fatal(err)
	}
	eatCfg := gaitsim.DefaultConfig()
	eatCfg.Seed = 2
	eat, err := gaitsim.SimulateActivity(user, eatCfg, trace.ActivityEating, 60)
	if err != nil {
		b.Fatal(err)
	}
	for _, delta := range []float64{0.015, 0.0325, 0.05, 0.08} {
		b.Run(fmtFloat("delta", delta), func(b *testing.B) {
			var walkSteps, eatSteps int
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Identify: gaitid.Config{OffsetThreshold: delta}}
				wres, err := core.Process(walk.Trace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				eres, err := core.Process(eat.Trace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				walkSteps, eatSteps = wres.Steps, eres.Steps
			}
			b.ReportMetric(float64(walkSteps), "walk-steps")
			b.ReportMetric(float64(eatSteps), "eat-miscounts")
		})
	}
}

// BenchmarkAblationConfirm sweeps the stepping confirmation count.
func BenchmarkAblationConfirm(b *testing.B) {
	user := gaitsim.DefaultProfile()
	step, err := gaitsim.SimulateActivity(user, gaitsim.DefaultConfig(), trace.ActivityStepping, 60)
	if err != nil {
		b.Fatal(err)
	}
	pokerCfg := gaitsim.DefaultConfig()
	pokerCfg.Seed = 3
	poker, err := gaitsim.SimulateActivity(user, pokerCfg, trace.ActivityPoker, 60)
	if err != nil {
		b.Fatal(err)
	}
	for _, confirm := range []int{1, 2, 3, 5} {
		b.Run(fmtInt("confirm", confirm), func(b *testing.B) {
			var stepSteps, pokerSteps int
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Identify: gaitid.Config{ConfirmCount: confirm}}
				sres, err := core.Process(step.Trace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pres, err := core.Process(poker.Trace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				stepSteps, pokerSteps = sres.Steps, pres.Steps
			}
			b.ReportMetric(float64(stepSteps), "step-steps")
			b.ReportMetric(float64(pokerSteps), "poker-miscounts")
		})
	}
}

// BenchmarkAblationIntegration compares mean-removal against naive double
// integration on bias-corrupted displacement segments — the design choice
// inherited from MoLe [26].
func BenchmarkAblationIntegration(b *testing.B) {
	const (
		fs   = 100.0
		disp = 0.08
		dur  = 0.5
	)
	rng := rand.New(rand.NewSource(1))
	n := int(dur * fs)
	accel := make([]float64, n)
	for i := range accel {
		ti := float64(i) / fs
		accel[i] = 2*disp/dur*math.Pi/dur*math.Sin(2*math.Pi*ti/dur) + 0.15 + 0.03*rng.NormFloat64()
	}
	for _, method := range []string{"mean-removal", "naive"} {
		b.Run(method, func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				if method == "mean-removal" {
					got = dsp.DisplacementMeanRemoval(accel, 1/fs)
				} else {
					got = dsp.DisplacementNaive(accel, 1/fs)
				}
			}
			b.ReportMetric(math.Abs(got-disp)*1000, "err-mm")
		})
	}
}

// BenchmarkPipelineThroughput measures raw pipeline cost per minute of
// 100 Hz sensor data — the number a wearable integrator cares about.
func BenchmarkPipelineThroughput(b *testing.B) {
	user := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(user, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Process(rec.Trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rec.Trace.Samples)), "samples/op")
}

func fmtFloat(name string, v float64) string { return fmt.Sprintf("%s=%g", name, v) }
func fmtInt(name string, v int) string       { return fmt.Sprintf("%s=%d", name, v) }

// --- Extension benches ---------------------------------------------------

func BenchmarkAdversarialSpoof(b *testing.B) {
	var replay int
	for i := 0; i < b.N; i++ {
		_, res := eval.AdversarialSpoof(benchOpts())
		replay = res.GaitReplay
	}
	b.ReportMetric(float64(replay), "replay-steps")
}

func BenchmarkSurfaceSweep(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		_, res := eval.SurfaceSweep(benchOpts())
		worst = 1
		for _, acc := range res.PTrackAcc {
			if acc < worst {
				worst = acc
			}
		}
	}
	b.ReportMetric(worst, "worst-acc")
}

func BenchmarkMapMatch(b *testing.B) {
	var matched float64
	for i := 0; i < b.N; i++ {
		_, res := eval.MapMatchCaseStudy(eval.Options{Seed: 1, Users: 1, DurationScale: 1})
		matched = res.FilteredError.Mean
	}
	b.ReportMetric(matched, "xtrack-m")
}

// BenchmarkAblationAdaptiveDelta compares the fixed paper threshold with
// the adaptive variant on a mixed stream.
func BenchmarkAblationAdaptiveDelta(b *testing.B) {
	user := gaitsim.DefaultProfile()
	rec, err := gaitsim.Simulate(user, gaitsim.DefaultConfig(), []gaitsim.Segment{
		{Activity: trace.ActivityWalking, Duration: 40},
		{Activity: trace.ActivityEating, Duration: 30},
		{Activity: trace.ActivityWalking, Duration: 40},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				res, err := core.Process(rec.Trace, core.Config{AdaptiveDelta: adaptive})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps")
			b.ReportMetric(float64(rec.Truth.StepCount()), "truth")
		})
	}
}

// BenchmarkBatchProcess measures the batch engine against serial
// processing on the acceptance workload: the 60 s reference walking
// trace replicated 16×. The serial baseline reuses one Tracker (the
// strongest fair baseline — it already recycles pipeline scratch);
// the parallel variants fan the same batch across pool workers. On a
// multicore host the 8-worker variant's ns/op should undercut serial
// by the worker count (modulo core count); the workers=1 variant
// bounds the engine's coordination overhead.
func BenchmarkBatchProcess(b *testing.B) {
	user := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(user, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		b.Fatal(err)
	}
	traces := make([]*trace.Trace, 16)
	for i := range traces {
		traces[i] = rec.Trace
	}

	b.Run("serial", func(b *testing.B) {
		p, err := core.NewPipeline(core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tr := range traces {
				if _, err := p.Process(tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 8} {
		b.Run(fmtInt("workers", workers), func(b *testing.B) {
			pool, err := engine.NewPool(workers, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items, err := pool.Process(ctx, traces)
				if err != nil {
					b.Fatal(err)
				}
				for _, it := range items {
					if it.Err != nil {
						b.Fatal(it.Err)
					}
				}
			}
		})
	}
}

// BenchmarkOnlineTracker measures the streaming pipeline's per-sample cost.
func BenchmarkOnlineTracker(b *testing.B) {
	benchOnlineTracker(b, 60)
}

// BenchmarkOnlineTrackerScaling runs the tracker over increasing trace
// lengths. With the incremental front end the ns/sample metric must stay
// flat: per-sample work is bounded by the filter settle length and the
// compacted buffer, not the stream duration (cmd/benchjson -flat-within
// enforces this from the emitted JSON).
func BenchmarkOnlineTrackerScaling(b *testing.B) {
	for _, seconds := range []float64{60, 120, 240} {
		b.Run(fmtInt("s", int(seconds)), func(b *testing.B) {
			benchOnlineTracker(b, seconds)
		})
	}
}

func benchOnlineTracker(b *testing.B, seconds float64) {
	user := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(user, gaitsim.DefaultConfig(), trace.ActivityWalking, seconds)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := stream.New(stream.Config{SampleRate: rec.Trace.SampleRate})
		if err != nil {
			b.Fatal(err)
		}
		var evs []stream.Event
		samples := rec.Trace.Samples
		for len(samples) > 0 {
			n := stream.BlockSamples
			if n > len(samples) {
				n = len(samples)
			}
			evs = tk.PushBlock(samples[:n], evs[:0])
			samples = samples[n:]
		}
		tk.Flush()
	}
	samples := len(rec.Trace.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkPushSample measures the single-sample Push entry point — the
// latency-shaped path a device feeding one sample per sensor interrupt
// uses. Deliberately named outside the BenchmarkOnlineTracker family:
// bench-guard's flat-within comparison spans the block-path benchmarks,
// and the per-sample path legitimately pays more per sample than the
// amortized block path.
func BenchmarkPushSample(b *testing.B) {
	user := gaitsim.DefaultProfile()
	rec, err := gaitsim.SimulateActivity(user, gaitsim.DefaultConfig(), trace.ActivityWalking, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := stream.New(stream.Config{SampleRate: rec.Trace.SampleRate})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range rec.Trace.Samples {
			tk.Push(s)
		}
		tk.Flush()
	}
	samples := len(rec.Trace.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkTrackerFootprint reports the steady-state heap bytes one
// warm tracker retains (arena capacities, recycled scratch, event
// buffers) after long streams of increasing duration. The bytes/tracker
// metric must stay flat with duration — the arena compaction bounds the
// window — and its ceiling is gated by make bench-mem.
func BenchmarkTrackerFootprint(b *testing.B) {
	user := gaitsim.DefaultProfile()
	for _, seconds := range []float64{60, 240} {
		b.Run(fmtInt("s", int(seconds)), func(b *testing.B) {
			rec, err := gaitsim.SimulateActivity(user, gaitsim.DefaultConfig(), trace.ActivityWalking, seconds)
			if err != nil {
				b.Fatal(err)
			}
			var footprint int
			for i := 0; i < b.N; i++ {
				tk, err := stream.New(stream.Config{SampleRate: rec.Trace.SampleRate})
				if err != nil {
					b.Fatal(err)
				}
				var evs []stream.Event
				samples := rec.Trace.Samples
				for len(samples) > 0 {
					n := stream.BlockSamples
					if n > len(samples) {
						n = len(samples)
					}
					evs = tk.PushBlock(samples[:n], evs[:0])
					samples = samples[n:]
				}
				footprint = tk.FootprintBytes()
			}
			b.ReportMetric(float64(footprint), "bytes/tracker")
		})
	}
}

func BenchmarkParticleFilterStep(b *testing.B) {
	route := deadreckon.MallRoute()
	m, err := deadreckon.NewCorridorMap(route, 5)
	if err != nil {
		b.Fatal(err)
	}
	pf, err := deadreckon.NewParticleFilter(m, route.Waypoints[0], deadreckon.ParticleFilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.Step(0.7, 0.01)
	}
}

func BenchmarkDutyCycle(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		_, res := eval.DutyCycle(eval.Options{Seed: 1, Users: 1, DurationScale: 0.5})
		savings = res.SavingsPct
	}
	b.ReportMetric(savings, "gps-savings-pct")
}
