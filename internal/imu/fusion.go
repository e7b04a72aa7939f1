package imu

import (
	"math"

	"ptrack/internal/vecmath"
)

// GyroConfig describes a rate-gyroscope error model.
type GyroConfig struct {
	NoiseStd float64      // white noise per axis, rad/s
	Bias     vecmath.Vec3 // constant bias per axis, rad/s
}

// DefaultGyroConfig returns a consumer MEMS gyro error model.
func DefaultGyroConfig() GyroConfig {
	return GyroConfig{
		NoiseStd: 0.005,
		Bias:     vecmath.V3(0.002, -0.001, 0.0015),
	}
}

// ReadGyro produces one gyroscope sample for the true device-frame
// angular velocity, corrupted by the sensor's gyro error model.
func (s *Sensor) ReadGyro(omegaDev vecmath.Vec3, cfg GyroConfig) vecmath.Vec3 {
	noise := vecmath.V3(
		s.rng.NormFloat64()*cfg.NoiseStd,
		s.rng.NormFloat64()*cfg.NoiseStd,
		s.rng.NormFloat64()*cfg.NoiseStd,
	)
	return omegaDev.Add(cfg.Bias).Add(noise)
}

// AngularVelocity recovers the device-frame angular velocity that rotates
// attitude prev into next over dt seconds — the quantity a strapped-down
// gyro measures. It returns the zero vector for dt <= 0.
func AngularVelocity(prev, next vecmath.Quat, dt float64) vecmath.Vec3 {
	if dt <= 0 {
		return vecmath.Vec3{}
	}
	// Relative rotation in the device frame: prev^-1 * next.
	rel := prev.Conj().Mul(next).Normalize()
	if rel.W < 0 {
		rel = vecmath.Quat{W: -rel.W, X: -rel.X, Y: -rel.Y, Z: -rel.Z}
	}
	sinHalf := math.Sqrt(rel.X*rel.X + rel.Y*rel.Y + rel.Z*rel.Z)
	if sinHalf < 1e-12 {
		return vecmath.Vec3{}
	}
	angle := 2 * math.Atan2(sinHalf, rel.W)
	axis := vecmath.V3(rel.X/sinHalf, rel.Y/sinHalf, rel.Z/sinHalf)
	return axis.Scale(angle / dt)
}

// ComplementaryFilter fuses gyroscope and accelerometer samples into an
// attitude estimate: the gyro propagates orientation at full bandwidth,
// and the accelerometer's gravity observation slowly corrects the tilt
// drift. This is the classic strapped-down fusion behind platform
// rotation-vector APIs (paper reference [25]); it tracks fast wrist
// re-orientation that a plain low-pass gravity estimate cannot.
// Construct with NewComplementaryFilter; not safe for concurrent use.
type ComplementaryFilter struct {
	q      vecmath.Quat // device-to-world estimate (yaw unobservable: relative)
	gain   float64      // accelerometer correction gain per sample
	primed bool
}

// NewComplementaryFilter returns a filter whose accelerometer correction
// has the given time constant (seconds) at the given sample rate. Typical
// time constants are 0.5-2 s.
func NewComplementaryFilter(timeConstantS, sampleRateHz float64) *ComplementaryFilter {
	gain := 1.0
	if timeConstantS > 0 && sampleRateHz > 0 {
		gain = 1 / (timeConstantS * sampleRateHz)
		if gain > 1 {
			gain = 1
		}
	}
	return &ComplementaryFilter{q: vecmath.IdentityQuat(), gain: gain}
}

// Update fuses one gyro + accelerometer sample pair over dt seconds and
// returns the current attitude estimate (device-to-world).
func (f *ComplementaryFilter) Update(gyro, accel vecmath.Vec3, dt float64) vecmath.Quat {
	if !f.primed {
		// Initialise tilt from the first accelerometer sample: find the
		// rotation aligning the measured gravity with world up.
		f.q = tiltFromAccel(accel)
		f.primed = true
		return f.q
	}

	// Gyro propagation: q <- q * exp(omega*dt/2).
	angle := gyro.Norm() * dt
	if angle > 0 {
		dq := vecmath.AxisAngle(gyro.Unit(), angle)
		f.q = f.q.Mul(dq).Normalize()
	}

	// Accelerometer correction: rotate the estimate so predicted up drifts
	// toward measured up, weighted by how credible the gravity observation
	// is (|a| near g).
	an := accel.Norm()
	if an > 0 {
		credibility := 1 - math.Min(math.Abs(an-StandardGravity)/StandardGravity, 1)
		upMeasured := f.q.Rotate(accel.Unit()) // measured up in world frame
		upWorld := vecmath.V3(0, 0, 1)         // where it should point
		axis := upMeasured.Cross(upWorld)      // correction axis
		errAngle := math.Asin(math.Min(1, axis.Norm()))
		if upMeasured.Dot(upWorld) < 0 {
			errAngle = math.Pi - errAngle
		}
		if errAngle > 1e-9 && axis.Norm() > 1e-12 {
			corr := vecmath.AxisAngle(axis.Unit(), errAngle*f.gain*credibility)
			f.q = corr.Mul(f.q).Normalize()
		}
	}
	return f.q
}

// Vertical returns the world-frame vertical linear acceleration implied by
// the current attitude for a raw accelerometer sample.
func (f *ComplementaryFilter) Vertical(accel vecmath.Vec3) float64 {
	world := f.q.Rotate(accel)
	return world.Z - StandardGravity
}

// tiltFromAccel builds the tilt-only attitude whose inverse maps the
// measured specific force onto world up.
func tiltFromAccel(accel vecmath.Vec3) vecmath.Quat {
	up := accel.Unit()
	if up.Norm() == 0 {
		return vecmath.IdentityQuat()
	}
	worldUp := vecmath.V3(0, 0, 1)
	axis := up.Cross(worldUp)
	if axis.Norm() < 1e-12 {
		if up.Dot(worldUp) > 0 {
			return vecmath.IdentityQuat()
		}
		return vecmath.AxisAngle(vecmath.V3(1, 0, 0), math.Pi)
	}
	angle := up.AngleTo(worldUp)
	return vecmath.AxisAngle(axis.Unit(), angle)
}
