package ptrack_test

import (
	"fmt"
	"log"

	"ptrack"
)

// The healthcare application from the paper's introduction: a daily
// activity report whose numbers can be trusted because PTrack rejects
// interference and spoofing. A simulated "hour in the life": commuting
// walks, a lunch (eating), desk games, and an attempt to cheat with a
// spoofing cradle, which contributes nothing.
func ExampleSummarize() {
	user := ptrack.DefaultSimProfile()

	rec, err := ptrack.Simulate(user, ptrack.DefaultSimConfig(), []ptrack.SimSegment{
		{Activity: ptrack.ActivityWalking, Duration: 300},  // commute
		{Activity: ptrack.ActivityIdle, Duration: 240},     // desk
		{Activity: ptrack.ActivityEating, Duration: 180},   // lunch
		{Activity: ptrack.ActivityStepping, Duration: 240}, // corridor walk, phone in hand
		{Activity: ptrack.ActivityGaming, Duration: 180},   // break
		{Activity: ptrack.ActivitySpoofing, Duration: 300}, // the cheat attempt
		{Activity: ptrack.ActivityWalking, Duration: 300},  // commute home
	})
	if err != nil {
		log.Fatal(err)
	}

	tracker, err := ptrack.New(ptrack.WithProfile(user.ArmLength, user.LegLength, user.K))
	if err != nil {
		log.Fatal(err)
	}
	res, err := tracker.Process(rec.Trace)
	if err != nil {
		log.Fatal(err)
	}

	body := ptrack.UserBody{MassKg: 72, HeightM: 1.78}
	sum, err := ptrack.Summarize(res, body, rec.Trace.Duration().Seconds(), 120)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Activity report (2-minute windows)")
	fmt.Printf("%-8s %6s %9s %7s %6s %7s\n", "window", "steps", "dist (m)", "m/s", "METs", "kcal")
	for i, iv := range sum.Intervals {
		fmt.Printf("%5d    %6d %9.1f %7.2f %6.1f %7.2f\n",
			i, iv.Steps, iv.Distance, iv.Speed, iv.METs, iv.Kcal)
	}
	fmt.Println()
	fmt.Printf("total steps:     %d (true pedestrian steps: %d)\n", sum.Steps, rec.Truth.StepCount())
	fmt.Printf("total distance:  %.0f m (true: %.0f m)\n", sum.Distance, rec.Truth.Distance)
	fmt.Printf("active time:     %.0f s of %.0f s\n", sum.ActiveS, rec.Trace.Duration().Seconds())
	fmt.Printf("energy:          %.1f kcal\n", sum.Kcal)
	fmt.Printf("speed:           mean %.2f / median %.2f / peak %.2f m/s\n",
		sum.MeanSpeed, sum.MedianSpeed, sum.PeakSpeed)
	fmt.Println()
	fmt.Println("note: eating, gaming and the 5-minute spoofing cradle added ~0 steps —")
	fmt.Println("a naive pedometer would have credited the cheat with hundreds.")
	// Output:
	// Activity report (2-minute windows)
	// window    steps  dist (m)     m/s   METs    kcal
	//     0       214     150.3    1.25    3.1    7.55
	//     1       216     151.8    1.26    3.2    7.60
	//     2       108      75.9    0.63    2.1    5.00
	//     3         0       0.0    0.00    1.0    2.40
	//     4         0       0.0    0.00    1.0    2.40
	//     5         0       0.0    0.00    1.0    2.40
	//     6       214     153.8    1.28    3.2    7.67
	//     7       218     156.4    1.30    3.2    7.76
	//     8         0       0.0    0.00    1.0    2.40
	//     9         0       0.0    0.00    1.0    2.40
	//    10         0       0.0    0.00    1.0    2.40
	//    11         0       0.0    0.00    1.0    2.40
	//    12       214     143.9    1.20    3.1    7.33
	//    13       216     144.8    1.21    3.1    7.36
	//    14       108      72.6    1.21    3.1    3.69
	//
	// total steps:     1508 (true pedestrian steps: 1512)
	// total distance:  1049 m (true: 1057 m)
	// active time:     900 s of 1740 s
	// energy:          70.8 kcal
	// speed:           mean 1.17 / median 1.25 / peak 1.30 m/s
	//
	// note: eating, gaming and the 5-minute spoofing cradle added ~0 steps —
	// a naive pedometer would have credited the cheat with hundreds.
}
