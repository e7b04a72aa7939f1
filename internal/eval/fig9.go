package eval

import (
	"fmt"
	"math"

	"ptrack/internal/core"
	"ptrack/internal/deadreckon"
	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// Fig9Result reproduces the Fig. 9 indoor-navigation case study.
type Fig9Result struct {
	RouteLength  float64 // planned route, metres (141.5 in the paper)
	TrueDistance float64 // distance the simulated user actually covered
	PTrackDist   float64 // distance from PTrack's steps and strides
	StepsCounted int
	StepsTrue    int
	MeanStepErr  float64          // mean per-step stride error, metres
	Path         []deadreckon.Fix // dead-reckoned trajectory
	PathError    deadreckon.PathError
	Route        *deadreckon.Route
}

// routeScript converts a route into a simulator script: walk each leg at
// the profile speed, with a short in-place turn between legs.
func routeScript(r *deadreckon.Route, p gaitsim.Profile) (script []gaitsim.Segment, initialHeading float64) {
	headings := r.LegHeadings()
	speed := p.ForwardSpeed()
	const turnS = 1.0
	for i, h := range headings {
		legLen := r.Waypoints[i+1].Sub(r.Waypoints[i]).Norm()
		if i > 0 {
			turn := angleDiff(h, headings[i-1])
			script = append(script, gaitsim.Segment{
				Activity: trace.ActivityWalking,
				Duration: turnS,
				TurnRate: turn / turnS,
			})
			// The turning second also advances ~speed*turnS metres along
			// the arc; shorten the leg accordingly.
			legLen -= speed * turnS / 2
			if i+1 < len(headings) {
				legLen -= speed * turnS / 2
			}
		}
		if legLen < speed*0.5 {
			legLen = speed * 0.5
		}
		script = append(script, gaitsim.Segment{
			Activity: trace.ActivityWalking,
			Duration: legLen / speed,
		})
	}
	return script, headings[0]
}

// angleDiff returns the signed smallest rotation from a to b.
func angleDiff(b, a float64) float64 {
	d := b - a
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// Fig9Navigation runs the mall-navigation case study: simulate a walk
// along the A..G route, track it with PTrack (self-trained profile), and
// dead-reckon the trajectory from counted steps, estimated strides and
// the fused heading.
func Fig9Navigation(opt Options) (*Table, *Fig9Result) {
	opt = opt.withDefaults()
	p := Profiles(1, opt.Seed)[0]
	route := deadreckon.MallRoute()
	res := &Fig9Result{RouteLength: route.Length(), Route: route}

	// Initialization phase: self-train the profile.
	auto, _, err := userProfiles(p, opt.Seed+8000, opt.DurationScale)
	if err != nil {
		panic(fmt.Sprintf("eval: %v", err))
	}

	script, initialHeading := routeScript(route, p)
	cfg := simCfg(opt.Seed + 8100)
	cfg.InitialHeading = initialHeading
	rec := mustSimulate(p, cfg, script)
	res.TrueDistance = rec.Truth.Distance
	res.StepsTrue = rec.Truth.StepCount()

	out, err := core.Process(rec.Trace, core.Config{Profile: &auto})
	if err != nil {
		panic(fmt.Sprintf("eval: %v", err))
	}
	res.StepsCounted = out.Steps
	res.PTrackDist = out.Distance

	errs := matchStrides(out.StepLog, rec.Truth.Steps, 1.2)
	var sum float64
	for _, e := range errs {
		sum += e
	}
	if len(errs) > 0 {
		res.MeanStepErr = sum / float64(len(errs))
	}

	// Dead-reckon: heading sampled from the fused yaw channel at each
	// counted step.
	start := route.Waypoints[0]
	tracker := deadreckon.NewTracker(start)
	for _, st := range out.StepLog {
		idx := int(st.T * rec.Trace.SampleRate)
		if idx >= len(rec.Trace.Samples) {
			idx = len(rec.Trace.Samples) - 1
		}
		tracker.Step(st.T, st.Stride, rec.Trace.Samples[idx].Yaw)
	}
	res.Path = tracker.Path()
	res.PathError = deadreckon.CompareToRoute(res.Path, route)

	tbl := &Table{
		Title:  "Fig.9 Indoor navigation case study (mall route A..G)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"route length (m)", f2(res.RouteLength)},
			{"true walked distance (m)", f2(res.TrueDistance)},
			{"PTrack distance (m)", f2(res.PTrackDist)},
			{"true steps", d0(res.StepsTrue)},
			{"PTrack steps", d0(res.StepsCounted)},
			{"mean per-step stride error (m)", f3(res.MeanStepErr)},
			{"mean cross-track error (m)", f2(res.PathError.Mean)},
			{"end-point error (m)", f2(res.PathError.End)},
		},
		Notes: []string{
			"paper: route 141.5 m, PTrack measures 136.4 m, 5.1 cm mean per-step error",
		},
	}
	return tbl, res
}
