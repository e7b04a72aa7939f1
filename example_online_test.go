package ptrack_test

import (
	"fmt"
	"log"

	"ptrack"
)

// Feed samples one at a time, as a watch app would, and react to
// classification events as they become decidable (latency is roughly one
// gait cycle plus the classification margin). The user walks, stops to
// eat, then walks on with a hand in the pocket.
func ExampleNewOnline() {
	user := ptrack.DefaultSimProfile()
	rec, err := ptrack.Simulate(user, ptrack.DefaultSimConfig(), []ptrack.SimSegment{
		{Activity: ptrack.ActivityWalking, Duration: 20},
		{Activity: ptrack.ActivityEating, Duration: 15},
		{Activity: ptrack.ActivityStepping, Duration: 20},
	})
	if err != nil {
		log.Fatal(err)
	}

	online, err := ptrack.NewOnline(rec.Trace.SampleRate,
		ptrack.WithProfile(user.ArmLength, user.LegLength, user.K))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("t(s)   event                 steps  note")
	report := func(ev ptrack.Event, now float64) {
		note := ""
		if ev.StepsAdded > 0 {
			note = fmt.Sprintf("+%d steps", ev.StepsAdded)
		}
		fmt.Printf("%5.1f  cycle=%-13s %6d  %s (decided %.1fs after the cycle)\n",
			ev.T, ev.Label, ev.TotalSteps, note, now-ev.T)
	}

	for i, s := range rec.Trace.Samples {
		now := float64(i) / rec.Trace.SampleRate
		for _, ev := range online.Push(s) {
			report(ev, now)
		}
	}
	for _, ev := range online.Flush() {
		report(ev, rec.Trace.Duration().Seconds())
	}

	fmt.Printf("\nfinal: %d steps online (%d true)\n", online.Steps(), rec.Truth.StepCount())
	// Output:
	// t(s)   event                 steps  note
	//   1.6  cycle=walking            2  +2 steps (decided 0.4s after the cycle)
	//   2.8  cycle=walking            4  +2 steps (decided 0.3s after the cycle)
	//   3.9  cycle=walking            6  +2 steps (decided 0.3s after the cycle)
	//   5.0  cycle=walking            8  +2 steps (decided 0.3s after the cycle)
	//   6.1  cycle=walking           10  +2 steps (decided 0.3s after the cycle)
	//   7.2  cycle=walking           12  +2 steps (decided 0.3s after the cycle)
	//   8.3  cycle=walking           14  +2 steps (decided 0.3s after the cycle)
	//   9.4  cycle=walking           16  +2 steps (decided 0.3s after the cycle)
	//  10.5  cycle=walking           18  +2 steps (decided 0.4s after the cycle)
	//  11.6  cycle=walking           20  +2 steps (decided 0.3s after the cycle)
	//  12.8  cycle=walking           22  +2 steps (decided 0.3s after the cycle)
	//  13.9  cycle=walking           24  +2 steps (decided 0.3s after the cycle)
	//  15.0  cycle=walking           26  +2 steps (decided 0.3s after the cycle)
	//  16.1  cycle=walking           28  +2 steps (decided 0.3s after the cycle)
	//  17.2  cycle=walking           30  +2 steps (decided 0.3s after the cycle)
	//  18.3  cycle=walking           32  +2 steps (decided 0.3s after the cycle)
	//  19.4  cycle=walking           34  +2 steps (decided 0.3s after the cycle)
	//  20.3  cycle=walking           36  +2 steps (decided 0.2s after the cycle)
	//  21.1  cycle=interference      36   (decided 0.2s after the cycle)
	//  24.3  cycle=interference      36   (decided 0.3s after the cycle)
	//  27.5  cycle=interference      36   (decided 0.3s after the cycle)
	//  30.2  cycle=interference      36   (decided 0.3s after the cycle)
	//  33.4  cycle=interference      36   (decided 0.3s after the cycle)
	//  36.1  cycle=stepping          36   (decided 0.3s after the cycle)
	//  37.2  cycle=stepping          36   (decided 0.3s after the cycle)
	//  36.1  cycle=stepping          42  +2 steps (decided 2.6s after the cycle)
	//  37.2  cycle=stepping          42  +2 steps (decided 1.5s after the cycle)
	//  38.3  cycle=stepping          42  +2 steps (decided 0.4s after the cycle)
	//  39.4  cycle=stepping          44  +2 steps (decided 0.4s after the cycle)
	//  40.5  cycle=stepping          46  +2 steps (decided 0.3s after the cycle)
	//  41.7  cycle=stepping          48  +2 steps (decided 0.3s after the cycle)
	//  42.8  cycle=stepping          50  +2 steps (decided 0.3s after the cycle)
	//  43.9  cycle=stepping          52  +2 steps (decided 0.3s after the cycle)
	//  45.0  cycle=stepping          54  +2 steps (decided 0.3s after the cycle)
	//  46.1  cycle=stepping          56  +2 steps (decided 0.3s after the cycle)
	//  47.2  cycle=stepping          58  +2 steps (decided 0.4s after the cycle)
	//  48.3  cycle=stepping          60  +2 steps (decided 0.4s after the cycle)
	//  49.4  cycle=stepping          62  +2 steps (decided 0.4s after the cycle)
	//  50.5  cycle=stepping          64  +2 steps (decided 0.3s after the cycle)
	//  51.7  cycle=stepping          66  +2 steps (decided 0.3s after the cycle)
	//  52.8  cycle=stepping          68  +2 steps (decided 0.3s after the cycle)
	//  53.9  cycle=stepping          70  +2 steps (decided 0.3s after the cycle)
	//
	// final: 70 steps online (72 true)
}
