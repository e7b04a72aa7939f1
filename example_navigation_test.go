package ptrack_test

import (
	"fmt"
	"log"
	"math"

	"ptrack"
)

// waypoint is a 2-D route corner.
type waypoint struct{ x, y float64 }

// mallRoute is the Fig. 9 floor plan route: store exit A to elevator G.
var mallRoute = []waypoint{
	{0, 0},      // A
	{24, 0},     // B
	{24, -4},    // C (across the 4 m corridor)
	{30, -4},    //   return leg
	{30, 0},     // D (back across)
	{80, 0},     // E
	{80, 20},    // F
	{113.5, 20}, // G — total 141.5 m
}

// The paper's Fig. 9 case study as a downstream application. A user
// walks a 141.5 m shopping-centre route (A..G, crossing a 4 m corridor
// twice); PTrack supplies steps and per-step strides, and the app
// dead-reckons the trajectory with the platform's fused heading.
func Example_navigation() {
	user := ptrack.DefaultSimProfile()

	// Initialization phase: self-train the profile on a calibration
	// recording (see ExampleTrainProfile for details).
	calCfg := ptrack.DefaultSimConfig()
	calCfg.Seed = 7
	cal, err := ptrack.Simulate(user, calCfg, []ptrack.SimSegment{
		{Activity: ptrack.ActivityWalking, Duration: 90},
		{Activity: ptrack.ActivityStepping, Duration: 45},
		{Activity: ptrack.ActivityWalking, Duration: 90},
	})
	if err != nil {
		log.Fatal(err)
	}
	profile, err := ptrack.TrainProfile(cal.Trace, cal.Truth.Distance)
	if err != nil {
		log.Fatal(err)
	}

	// Walk the route: one simulator segment per leg, with 1 s turns.
	script, firstHeading, routeLen := routeToScript(mallRoute, user)
	simCfg := ptrack.DefaultSimConfig()
	simCfg.Seed = 9
	simCfg.InitialHeading = firstHeading
	rec, err := ptrack.Simulate(user, simCfg, script)
	if err != nil {
		log.Fatal(err)
	}

	tracker, err := ptrack.New(ptrack.WithTrainedProfile(profile))
	if err != nil {
		log.Fatal(err)
	}
	res, err := tracker.Process(rec.Trace)
	if err != nil {
		log.Fatal(err)
	}

	// Dead-reckon: advance one stride along the fused heading per step.
	x, y := mallRoute[0].x, mallRoute[0].y
	for _, step := range res.StepLog {
		idx := int(step.T * rec.Trace.SampleRate)
		if idx >= len(rec.Trace.Samples) {
			idx = len(rec.Trace.Samples) - 1
		}
		yaw := rec.Trace.Samples[idx].Yaw
		x += step.Stride * math.Cos(yaw)
		y += step.Stride * math.Sin(yaw)
	}

	gx, gy := mallRoute[len(mallRoute)-1].x, mallRoute[len(mallRoute)-1].y
	endErr := math.Hypot(x-gx, y-gy)

	fmt.Printf("planned route:      %.1f m (A to G via %d corners)\n", routeLen, len(mallRoute)-2)
	fmt.Printf("true distance:      %.1f m over %d steps\n", rec.Truth.Distance, rec.Truth.StepCount())
	fmt.Printf("PTrack distance:    %.1f m over %d steps\n", res.Distance, res.Steps)
	fmt.Printf("dead-reckoned end:  (%.1f, %.1f), elevator at (%.1f, %.1f)\n", x, y, gx, gy)
	fmt.Printf("end-point error:    %.1f m\n", endErr)
	fmt.Println()
	fmt.Println("paper reference: 141.5 m route, PTrack measured 136.4 m")
	// Output:
	// planned route:      141.5 m (A to G via 6 corners)
	// true distance:      144.6 m over 206 steps
	// PTrack distance:    141.3 m over 202 steps
	// dead-reckoned end:  (114.7, 18.8), elevator at (113.5, 20.0)
	// end-point error:    1.7 m
	//
	// paper reference: 141.5 m route, PTrack measured 136.4 m
}

// routeToScript converts the waypoint list into walking legs with turns.
func routeToScript(route []waypoint, user ptrack.SimProfile) (script []ptrack.SimSegment, firstHeading, total float64) {
	speed := user.StrideLength * user.StepFrequency
	const turnS = 1.0
	prevHeading := 0.0
	for i := 1; i < len(route); i++ {
		dx, dy := route[i].x-route[i-1].x, route[i].y-route[i-1].y
		legLen := math.Hypot(dx, dy)
		total += legLen
		heading := math.Atan2(dy, dx)
		if i == 1 {
			firstHeading = heading
		} else {
			turn := heading - prevHeading
			for turn > math.Pi {
				turn -= 2 * math.Pi
			}
			for turn < -math.Pi {
				turn += 2 * math.Pi
			}
			script = append(script, ptrack.SimSegment{
				Activity: ptrack.ActivityWalking,
				Duration: turnS,
				TurnRate: turn / turnS,
			})
			legLen -= speed * turnS
		}
		if legLen < speed {
			legLen = speed
		}
		script = append(script, ptrack.SimSegment{
			Activity: ptrack.ActivityWalking,
			Duration: legLen / speed,
		})
		prevHeading = heading
	}
	return script, firstHeading, total
}
