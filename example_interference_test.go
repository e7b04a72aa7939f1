package ptrack_test

import (
	"fmt"
	"log"

	"ptrack"
)

// The paper's headline robustness demo. A user eats, plays cards, takes
// photos, plays a phone game, swings an arm and finally straps the watch
// to a spoofing cradle — zero real steps throughout, and PTrack stays
// silent. Then it counts a real walk to show it is not just "always
// zero".
func Example_interference() {
	user := ptrack.DefaultSimProfile()

	tracker, err := ptrack.New()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("60 s of each activity; true steps in (), PTrack counts below:")
	fmt.Printf("%-10s %8s %8s\n", "activity", "true", "ptrack")
	activities := []ptrack.Activity{
		ptrack.ActivityEating,
		ptrack.ActivityPoker,
		ptrack.ActivityPhoto,
		ptrack.ActivityGaming,
		ptrack.ActivitySwinging,
		ptrack.ActivitySpoofing,
		ptrack.ActivityWalking,
		ptrack.ActivityStepping,
	}
	for i, a := range activities {
		cfg := ptrack.DefaultSimConfig()
		cfg.Seed = int64(100 + i)
		rec, err := ptrack.Simulate(user, cfg, []ptrack.SimSegment{
			{Activity: a, Duration: 60},
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := tracker.Process(rec.Trace)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8d %8d\n", a, rec.Truth.StepCount(), res.Steps)
	}

	fmt.Println()
	fmt.Println("A mixed session (walk -> eat -> walk with hand in pocket -> poker):")
	cfg := ptrack.DefaultSimConfig()
	cfg.Seed = 42
	rec, err := ptrack.Simulate(user, cfg, []ptrack.SimSegment{
		{Activity: ptrack.ActivityWalking, Duration: 45},
		{Activity: ptrack.ActivityEating, Duration: 30},
		{Activity: ptrack.ActivityStepping, Duration: 45},
		{Activity: ptrack.ActivityPoker, Duration: 30},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := tracker.Process(rec.Trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true steps %d, PTrack %d (interfering cycles rejected: %d)\n",
		rec.Truth.StepCount(), res.Steps, res.LabelCounts()[ptrack.LabelInterference])
	// Output:
	// 60 s of each activity; true steps in (), PTrack counts below:
	// activity       true   ptrack
	// eating            0        0
	// poker             0        0
	// photo             0        0
	// gaming            0        0
	// swinging          0        0
	// spoofing          0        0
	// walking         108      106
	// stepping        108      106
	//
	// A mixed session (walk -> eat -> walk with hand in pocket -> poker):
	// true steps 162, PTrack 160 (interfering cycles rejected: 11)
}
