// Package trace defines the sensor-trace and ground-truth types shared by
// the simulator, the PTrack pipeline and the evaluation harness, plus CSV
// serialisation so traces can be stored and replayed.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ptrack/internal/vecmath"
)

// Typed validation errors. ReadCSV and Trace.Validate wrap these, so
// callers can branch with errors.Is instead of matching message text.
var (
	// ErrMissingRate reports a trace with samples but no positive finite
	// sample rate — processing it would divide by zero in every
	// rate-derived configuration downstream.
	ErrMissingRate = errors.New("trace: missing or invalid sample rate")
	// ErrNonFinite reports a NaN or Inf sample field.
	ErrNonFinite = errors.New("trace: non-finite sample value")
	// ErrNonMonotonic reports timestamps that go backwards or repeat.
	ErrNonMonotonic = errors.New("trace: non-monotonic timestamps")
	// ErrIrregularTiming reports timestamps inconsistent with the
	// declared sample rate (gaps, jitter beyond tolerance, clock drift).
	ErrIrregularTiming = errors.New("trace: timestamps inconsistent with sample rate")
)

// Activity labels the motion that produced (part of) a trace. These mirror
// the activities evaluated in the paper (§II, §IV).
type Activity int

// Enumerated activities. Pedestrian activities come first, then interfering
// ones, so Activity.Pedestrian can test with a simple comparison.
const (
	ActivityUnknown  Activity = iota
	ActivityWalking           // normal walk: arm swing + body motion
	ActivityStepping          // walk with still arm (pocket, handbag, phone call)
	ActivityJogging           // faster gait, larger bounce
	ActivityIdle              // no motion
	ActivityEating            // knife-and-fork motion (interference)
	ActivityPoker             // playing cards (interference)
	ActivityPhoto             // taking photos (interference)
	ActivityGaming            // phone game (interference)
	ActivitySwinging          // arm swing with stationary body (interference)
	ActivitySpoofing          // mechanical spoofer rocking the device
	ActivityRunning           // fast gait: highest cadence and bounce
)

var activityNames = map[Activity]string{
	ActivityUnknown:  "unknown",
	ActivityWalking:  "walking",
	ActivityStepping: "stepping",
	ActivityJogging:  "jogging",
	ActivityIdle:     "idle",
	ActivityEating:   "eating",
	ActivityPoker:    "poker",
	ActivityPhoto:    "photo",
	ActivityGaming:   "gaming",
	ActivitySwinging: "swinging",
	ActivitySpoofing: "spoofing",
	ActivityRunning:  "running",
}

// String implements fmt.Stringer.
func (a Activity) String() string {
	if s, ok := activityNames[a]; ok {
		return s
	}
	return fmt.Sprintf("activity(%d)", int(a))
}

// ParseActivity converts a name produced by String back to an Activity.
func ParseActivity(s string) (Activity, error) {
	for a, name := range activityNames {
		if name == s {
			return a, nil
		}
	}
	return ActivityUnknown, fmt.Errorf("trace: unknown activity %q", s)
}

// Pedestrian reports whether the activity moves the body forward and hence
// should contribute steps.
func (a Activity) Pedestrian() bool {
	switch a {
	case ActivityWalking, ActivityStepping, ActivityJogging, ActivityRunning:
		return true
	default:
		return false
	}
}

// Sample is one accelerometer reading in the device frame (includes the
// gravity component, like a real wearable's raw accelerometer), with a
// fused heading estimate as provided by platform sensor APIs.
type Sample struct {
	T     float64      // seconds since trace start
	Accel vecmath.Vec3 // specific force in device frame, m/s^2
	Gyro  vecmath.Vec3 // angular velocity in device frame, rad/s
	Yaw   float64      // fused heading, radians CCW from world +X
}

// Trace is a uniformly sampled sensor recording.
type Trace struct {
	SampleRate float64 // Hz
	Samples    []Sample
	Label      Activity // dominant activity label (metadata; unknown for mixed traces)
}

// Dt returns the sample period in seconds (0 when the rate is unset).
func (tr *Trace) Dt() float64 {
	if tr.SampleRate <= 0 {
		return 0
	}
	return 1 / tr.SampleRate
}

// Duration returns the covered time span.
func (tr *Trace) Duration() time.Duration {
	if len(tr.Samples) == 0 {
		return 0
	}
	return time.Duration(tr.Samples[len(tr.Samples)-1].T * float64(time.Second))
}

// AccelSeries returns the acceleration components as three parallel slices
// (copies; the caller may mutate them freely).
func (tr *Trace) AccelSeries() (x, y, z []float64) {
	n := len(tr.Samples)
	x = make([]float64, n)
	y = make([]float64, n)
	z = make([]float64, n)
	for i, s := range tr.Samples {
		x[i], y[i], z[i] = s.Accel.X, s.Accel.Y, s.Accel.Z
	}
	return x, y, z
}

// Finite reports whether every field of the sample is a finite number.
func (s Sample) Finite() bool {
	return finite(s.T) && finite(s.Accel.X) && finite(s.Accel.Y) && finite(s.Accel.Z) &&
		finite(s.Gyro.X) && finite(s.Gyro.Y) && finite(s.Gyro.Z) && finite(s.Yaw)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the ingestion contract the DSP layers assume: a
// positive finite sample rate, finite sample fields, and strictly
// increasing timestamps that stay within half a sample period of the
// uniform grid implied by the rate. It returns nil for traces whose
// timestamps were never recorded (every T zero) — synthetic in-memory
// traces are index-implied by construction. Errors wrap ErrMissingRate,
// ErrNonFinite, ErrNonMonotonic or ErrIrregularTiming.
//
// Validate rejects; it does not repair. internal/condition turns the
// same defects into a conditioned trace plus a report.
func (tr *Trace) Validate() error {
	if tr == nil || len(tr.Samples) == 0 {
		return nil
	}
	if !(tr.SampleRate > 0) || math.IsInf(tr.SampleRate, 1) {
		return fmt.Errorf("%w: %v Hz", ErrMissingRate, tr.SampleRate)
	}
	for i, s := range tr.Samples {
		if !s.Finite() {
			return fmt.Errorf("%w: sample %d", ErrNonFinite, i)
		}
	}
	n := len(tr.Samples)
	if n >= 2 && tr.Samples[0].T == 0 && tr.Samples[n-1].T == 0 {
		// Timestamps unset: sample index implies time.
		return nil
	}
	// Ordering defects are reported before grid deviation: a swapped
	// pair also walks off the grid, and the more specific error is the
	// actionable one.
	for i := 1; i < n; i++ {
		if tr.Samples[i].T <= tr.Samples[i-1].T {
			return fmt.Errorf("%w: sample %d (t=%v after t=%v)",
				ErrNonMonotonic, i, tr.Samples[i].T, tr.Samples[i-1].T)
		}
	}
	dt := 1 / tr.SampleRate
	t0 := tr.Samples[0].T
	for i := 1; i < n; i++ {
		if dev := tr.Samples[i].T - (t0 + float64(i)*dt); math.Abs(dev) > dt/2 {
			return fmt.Errorf("%w: sample %d deviates %.4fs from the %g Hz grid",
				ErrIrregularTiming, i, dev, tr.SampleRate)
		}
	}
	return nil
}

// StepTruth records one true step taken during a trace.
type StepTruth struct {
	T      float64 // time of the step (heel strike), seconds
	Stride float64 // true stride length of this step, metres
}

// GroundTruth captures everything the evaluation needs to score a trace.
type GroundTruth struct {
	Steps      []StepTruth
	Distance   float64        // total true distance walked, metres
	ArmLength  float64        // user's true arm length m (shoulder to wrist), metres
	LegLength  float64        // user's true leg length l, metres
	Path       []vecmath.Vec3 // true positions over time (optional, for navigation)
	Activities []LabeledSpan  // per-interval activity labels for mixed traces
}

// LabeledSpan labels a time interval [Start, End) of a trace with the
// activity performed during it.
type LabeledSpan struct {
	Start, End float64 // seconds
	Activity   Activity
}

// StepCount returns the number of true steps.
func (g *GroundTruth) StepCount() int { return len(g.Steps) }

// Recording bundles a sensor trace with its ground truth, the unit the
// simulator hands to experiments.
type Recording struct {
	Trace *Trace
	Truth *GroundTruth
}
