package eval

import (
	"fmt"

	"ptrack/internal/baseline"
	"ptrack/internal/core"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// approach is one step-counting system under test.
type approach struct {
	name  string
	count func(tr *trace.Trace) int
}

// approaches builds the paper's four contenders: GFit, Montage, SCAR
// (trained on walking/stepping/eating/poker/gaming — Photo deliberately
// withheld, §IV-A) and PTrack.
func approaches(opt Options) []approach {
	scar := trainSCAR(opt)
	return []approach{
		{name: "GFit", count: func(tr *trace.Trace) int {
			return baseline.CountSteps(tr, baseline.GFitConfig())
		}},
		{name: "Mtage", count: func(tr *trace.Trace) int {
			return baseline.CountSteps(tr, baseline.MontageConfig())
		}},
		{name: "SCAR", count: func(tr *trace.Trace) int {
			return scar.CountSteps(tr)
		}},
		{name: "PTrack", count: func(tr *trace.Trace) int {
			res, err := core.Process(tr, core.Config{})
			if err != nil {
				return 0
			}
			return res.Steps
		}},
	}
}

// gfitCount applies the GFit-style counter to a trace.
func gfitCount(tr *trace.Trace) int {
	return baseline.CountSteps(tr, baseline.GFitConfig())
}

// trainSCAR builds the SCAR model on labeled synthetic data from two
// training users, without the Photo activity.
func trainSCAR(opt Options) *baseline.SCAR {
	classes := []trace.Activity{
		trace.ActivityWalking, trace.ActivityStepping,
		trace.ActivityEating, trace.ActivityPoker, trace.ActivityGaming,
	}
	training := make(map[trace.Activity][]*trace.Trace, len(classes))
	trainers := Profiles(2, opt.Seed+555)
	for ci, a := range classes {
		for ui, p := range trainers {
			rec := mustActivity(p, simCfg(opt.Seed+int64(7000+100*ci+ui)), a, 45*opt.DurationScale)
			training[a] = append(training[a], rec.Trace)
		}
	}
	s, err := baseline.NewSCAR(training)
	if err != nil {
		panic(fmt.Sprintf("eval: SCAR training: %v", err))
	}
	return s
}

// mixedScript builds the Fig. 6 "Mixed" scenario: alternating walking and
// stepping with gait transitions.
func mixedScript(duration float64) []gaitsim.Segment {
	seg := duration / 4
	return []gaitsim.Segment{
		{Activity: trace.ActivityWalking, Duration: seg},
		{Activity: trace.ActivityStepping, Duration: seg},
		{Activity: trace.ActivityWalking, Duration: seg},
		{Activity: trace.ActivityStepping, Duration: seg},
	}
}
