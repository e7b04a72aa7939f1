package ptrack_test

import (
	"fmt"
	"log"

	"ptrack"
)

// Clinical-style gait analysis on top of PTrack's per-step output:
// cadence, stride variability, timing regularity and left/right
// symmetry, compared between a smooth indoor floor and a rough outdoor
// trail. Elevated stride variability is a recognised fall-risk marker;
// the paper's healthcare motivation is exactly this kind of quantitative
// awareness.
func ExampleAnalyzeGait() {
	user := ptrack.DefaultSimProfile()
	tracker, err := ptrack.New(ptrack.WithProfile(user.ArmLength, user.LegLength, user.K))
	if err != nil {
		log.Fatal(err)
	}

	analyse := func(name string, roughness float64) *ptrack.GaitQuality {
		cfg := ptrack.DefaultSimConfig()
		cfg.Seed = 17
		cfg.SurfaceRoughness = roughness
		rec, err := ptrack.Simulate(user, cfg, []ptrack.SimSegment{
			{Activity: ptrack.ActivityWalking, Duration: 120},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := tracker.Process(rec.Trace)
		if err != nil {
			log.Fatal(err)
		}
		g, err := ptrack.AnalyzeGait(res, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s steps=%3d cadence=%.2f±%.2f steps/s  stride=%.2f m (CV %.1f%%)  "+
			"timing CV %.1f%%  symmetry %.3f\n",
			name, g.Steps, g.CadenceMean, g.CadenceStd,
			g.StrideMean, 100*g.StrideCV, 100*g.StepTimeCV, g.SymmetryIndex)
		return g
	}

	fmt.Println("Two-minute walks, same user, different surfaces:")
	smooth := analyse("indoor floor", 0)
	rough := analyse("outdoor trail", 0.7)

	fmt.Println()
	if rough.StrideCV > smooth.StrideCV {
		fmt.Printf("stride variability rises %.1fx on rough ground — the kind of gait-quality\n",
			rough.StrideCV/smooth.StrideCV)
		fmt.Println("signal a longitudinal health application watches for.")
	}
	// Output:
	// Two-minute walks, same user, different surfaces:
	// indoor floor   steps=214 cadence=1.80±0.06 steps/s  stride=0.70 m (CV 2.3%)  timing CV 3.3%  symmetry 0.004
	// outdoor trail  steps=214 cadence=1.80±0.06 steps/s  stride=0.71 m (CV 3.7%)  timing CV 3.4%  symmetry 0.005
	//
	// stride variability rises 1.6x on rough ground — the kind of gait-quality
	// signal a longitudinal health application watches for.
}
