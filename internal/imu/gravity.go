package imu

import (
	"ptrack/internal/vecmath"
)

// GravityEstimator tracks the gravity vector in the device frame with an
// exponential low-pass over raw accelerometer samples — the standard
// platform technique for separating gravity from linear acceleration
// ([25], Android's Sensor.TYPE_GRAVITY). The zero value is unusable;
// construct with NewGravityEstimator.
type GravityEstimator struct {
	alpha   float64
	gravity vecmath.Vec3
	primed  bool
}

// NewGravityEstimator returns an estimator whose low-pass has the given
// cutoff (Hz) at the given sample rate (Hz). Cutoffs around 0.3 Hz track
// slow wrist re-orientation while rejecting gait-band motion.
func NewGravityEstimator(cutoffHz, sampleRateHz float64) *GravityEstimator {
	alpha := 1.0
	if cutoffHz > 0 && sampleRateHz > 0 {
		dt := 1 / sampleRateHz
		rc := 1 / (2 * 3.141592653589793 * cutoffHz)
		alpha = dt / (rc + dt)
	}
	return &GravityEstimator{alpha: alpha}
}

// Update feeds one raw accelerometer sample and returns the current
// gravity estimate (device frame, magnitude ~ G). The first sample primes
// the filter.
func (g *GravityEstimator) Update(accel vecmath.Vec3) vecmath.Vec3 {
	if !g.primed {
		g.gravity = accel
		g.primed = true
		return g.gravity
	}
	g.gravity = g.gravity.Add(accel.Sub(g.gravity).Scale(g.alpha))
	return g.gravity
}

// State returns the estimator's mutable state (the running gravity
// vector and whether the first sample has primed it) for snapshotting.
func (g *GravityEstimator) State() (gravity vecmath.Vec3, primed bool) {
	return g.gravity, g.primed
}

// SetState restores state captured by State; alpha stays whatever the
// constructor derived, so the restored estimator must be built with the
// same cutoff and rate.
func (g *GravityEstimator) SetState(gravity vecmath.Vec3, primed bool) {
	g.gravity, g.primed = gravity, primed
}

// Projection is a per-sample decomposition of linear acceleration into the
// vertical axis and a fixed horizontal basis.
type Projection struct {
	Vertical    float64 // linear acceleration along world up, m/s^2
	H1, H2      float64 // linear acceleration along the two horizontal basis axes
	LinearAccel vecmath.Vec3
}

// Projector turns raw device-frame accelerometer samples into
// gravity-referenced projections: vertical linear acceleration plus a
// 2-D horizontal decomposition suitable for anterior-axis fitting.
// Construct with NewProjector.
type Projector struct {
	grav *GravityEstimator
}

// NewProjector returns a Projector using a gravity low-pass with the given
// cutoff and sample rate.
func NewProjector(cutoffHz, sampleRateHz float64) *Projector {
	return &Projector{grav: NewGravityEstimator(cutoffHz, sampleRateHz)}
}

// Project consumes one raw sample and returns its decomposition. The
// horizontal basis is derived deterministically from the current gravity
// estimate: e1 is the device X axis made orthogonal to gravity (device Y
// as fallback when X is vertical), e2 completes the right-handed triad.
func (p *Projector) Project(accel vecmath.Vec3) Projection {
	grav := p.grav.Update(accel)
	up := grav.Unit() // unit vector toward "up" as seen in the device frame
	lin := accel.Sub(grav)

	e1 := vecmath.V3(1, 0, 0).Reject(up)
	if e1.Norm() < 1e-6 {
		e1 = vecmath.V3(0, 1, 0).Reject(up)
	}
	e1 = e1.Unit()
	e2 := up.Cross(e1)

	return Projection{
		Vertical:    lin.Dot(up),
		H1:          lin.Dot(e1),
		H2:          lin.Dot(e2),
		LinearAccel: lin,
	}
}

// Prime feeds one sample through the gravity filter without emitting a
// projection. On a fresh projector this sets the gravity estimate to
// accel exactly, settling the low-pass before real data arrives (more
// copies of the same sample would not move it).
func (p *Projector) Prime(accel vecmath.Vec3) { p.grav.Update(accel) }

// State exposes the underlying gravity estimator's state for
// snapshotting; see GravityEstimator.State.
func (p *Projector) State() (gravity vecmath.Vec3, primed bool) { return p.grav.State() }

// SetState restores estimator state captured by State.
func (p *Projector) SetState(gravity vecmath.Vec3, primed bool) { p.grav.SetState(gravity, primed) }
