package ptrack_test

import (
	"fmt"
	"log"

	"ptrack"
)

// Simulate a one-minute walk on the synthetic wrist IMU, track it with
// PTrack, and print steps, distance and the gait-type breakdown.
func Example() {
	// A synthetic user wearing the watch: the simulator stands in for the
	// paper's LG Urbane prototype.
	user := ptrack.DefaultSimProfile()
	simCfg := ptrack.DefaultSimConfig()

	rec, err := ptrack.Simulate(user, simCfg, []ptrack.SimSegment{
		{Activity: ptrack.ActivityWalking, Duration: 60},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Track it. The profile (arm length m, leg length l, calibration k)
	// enables stride estimation; see ExampleTrainProfile for learning it
	// automatically.
	tracker, err := ptrack.New(ptrack.WithProfile(user.ArmLength, user.LegLength, user.K))
	if err != nil {
		log.Fatal(err)
	}
	res, err := tracker.Process(rec.Trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace:     %d samples, %.0f s\n", len(rec.Trace.Samples), rec.Trace.Duration().Seconds())
	fmt.Printf("steps:     %d counted (%d true)\n", res.Steps, rec.Truth.StepCount())
	fmt.Printf("distance:  %.1f m estimated (%.1f m true)\n", res.Distance, rec.Truth.Distance)

	counts := res.LabelCounts()
	fmt.Printf("cycles:    %d walking, %d stepping, %d interference\n",
		counts[ptrack.LabelWalking], counts[ptrack.LabelStepping], counts[ptrack.LabelInterference])

	// Per-step strides are available too.
	if len(res.StepLog) > 0 {
		first := res.StepLog[0]
		fmt.Printf("1st step:  t=%.2fs stride=%.2fm\n", first.T, first.Stride)
	}
	// Output:
	// trace:     6000 samples, 60 s
	// steps:     106 counted (108 true)
	// distance:  74.5 m estimated (75.6 m true)
	// cycles:    53 walking, 0 stepping, 0 interference
	// 1st step:  t=1.64s stride=0.70m
}
