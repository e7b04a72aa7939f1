package ptrack_test

import (
	"fmt"
	"log"
	"math"

	"ptrack"
)

// The paper's §III-C2 profile self-training. The user never measures
// anything: PTrack learns an effective arm/leg profile from a day of
// natural mixed-gait data (walking plus hands-in-pockets stepping) and
// one known-distance walk for the Eq. (2) calibration. The learned
// profile is then compared against a manually tape-measured one on fresh
// data, reproducing the Fig. 8(b) comparison.
func ExampleTrainProfile() {
	user := ptrack.DefaultSimProfile()

	// A "day in the life" calibration recording.
	calCfg := ptrack.DefaultSimConfig()
	calCfg.Seed = 11
	cal, err := ptrack.Simulate(user, calCfg, []ptrack.SimSegment{
		{Activity: ptrack.ActivityWalking, Duration: 60},
		{Activity: ptrack.ActivityStepping, Duration: 30},
		{Activity: ptrack.ActivityWalking, Duration: 60},
		{Activity: ptrack.ActivityStepping, Duration: 30},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Self-train; the known distance plays the paper's "initialization
	// phase" role of training the per-user calibration factor k.
	auto, err := ptrack.TrainProfile(cal.Trace, cal.Truth.Distance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-trained: arm=%.3f m, leg=%.3f m, k=%.3f\n", auto.ArmLength, auto.LegLength, auto.K)
	fmt.Printf("tape measure: arm=%.3f m, leg=%.3f m (true values)\n", user.ArmLength, user.LegLength)
	fmt.Println("(the trained lengths are effective parameters; k absorbs the scale)")

	// Manual profile: true lengths plus a realistic 2-3 cm measuring
	// error, with the same k calibration.
	manual := ptrack.Profile{
		ArmLength: user.ArmLength + 0.02,
		LegLength: user.LegLength - 0.03,
		K:         2.35,
	}
	k, err := ptrack.CalibrateK(cal.Trace, manual, cal.Truth.Distance)
	if err != nil {
		log.Fatal(err)
	}
	manual.K = k

	// Evaluate both on fresh walks.
	fmt.Println()
	fmt.Printf("%-12s %12s %12s %12s\n", "walk", "true (m)", "auto (m)", "manual (m)")
	var autoErr, manualErr float64
	const walks = 3
	for i := 0; i < walks; i++ {
		cfg := ptrack.DefaultSimConfig()
		cfg.Seed = int64(100 + i)
		rec, err := ptrack.Simulate(user, cfg, []ptrack.SimSegment{
			{Activity: ptrack.ActivityWalking, Duration: 90},
		})
		if err != nil {
			log.Fatal(err)
		}
		da := distanceWith(rec.Trace, auto)
		dm := distanceWith(rec.Trace, manual)
		fmt.Printf("%-12d %12.1f %12.1f %12.1f\n", i+1, rec.Truth.Distance, da, dm)
		autoErr += math.Abs(da-rec.Truth.Distance) / rec.Truth.Distance
		manualErr += math.Abs(dm-rec.Truth.Distance) / rec.Truth.Distance
	}
	fmt.Printf("\nmean distance error: automatic %.1f%%, manual %.1f%%\n",
		100*autoErr/walks, 100*manualErr/walks)
	fmt.Println("paper reference: 5.3 cm vs 5.7 cm mean per-step error — comparable")
	// Output:
	// self-trained: arm=0.495 m, leg=0.718 m, k=2.478
	// tape measure: arm=0.620 m, leg=0.900 m (true values)
	// (the trained lengths are effective parameters; k absorbs the scale)
	//
	// walk             true (m)     auto (m)   manual (m)
	// 1                   113.6        116.8        112.6
	// 2                   113.5        116.9        112.6
	// 3                   114.1        117.2        113.0
	//
	// mean distance error: automatic 2.8%, manual 0.9%
	// paper reference: 5.3 cm vs 5.7 cm mean per-step error — comparable
}

func distanceWith(tr *ptrack.Trace, p ptrack.Profile) float64 {
	tk, err := ptrack.New(ptrack.WithTrainedProfile(p))
	if err != nil {
		log.Fatal(err)
	}
	res, err := tk.Process(tr)
	if err != nil {
		log.Fatal(err)
	}
	return res.Distance
}
