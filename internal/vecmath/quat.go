package vecmath

import "math"

// Quat is a unit quaternion (w + xi + yj + zk) representing an orientation.
// The zero value is invalid; use IdentityQuat or AxisAngle.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation.
func IdentityQuat() Quat { return Quat{W: 1} }

// AxisAngle returns the quaternion rotating by angle radians about axis.
// A zero axis yields the identity rotation.
func AxisAngle(axis Vec3, angle float64) Quat {
	u := axis.Unit()
	if u.Norm() == 0 {
		return IdentityQuat()
	}
	s, c := math.Sin(angle/2), math.Cos(angle/2)
	return Quat{W: c, X: u.X * s, Y: u.Y * s, Z: u.Z * s}
}

// Mul returns the Hamilton product q * r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion norm.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit norm. The zero quaternion maps to the
// identity so downstream rotations remain valid.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}

// Rotate applies the rotation q to vector v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q^-1, expanded for efficiency.
	t := Vec3{q.X, q.Y, q.Z}.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(Vec3{q.X, q.Y, q.Z}.Cross(t))
}

// Slerp spherically interpolates between q (t=0) and r (t=1).
func Slerp(q, r Quat, t float64) Quat {
	dot := q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
	if dot < 0 {
		r = Quat{-r.W, -r.X, -r.Y, -r.Z}
		dot = -dot
	}
	if dot > 0.9995 {
		// Nearly parallel: fall back to normalised linear interpolation.
		return Quat{
			W: q.W + t*(r.W-q.W),
			X: q.X + t*(r.X-q.X),
			Y: q.Y + t*(r.Y-q.Y),
			Z: q.Z + t*(r.Z-q.Z),
		}.Normalize()
	}
	theta := math.Acos(dot)
	sinTheta := math.Sin(theta)
	a := math.Sin((1-t)*theta) / sinTheta
	b := math.Sin(t*theta) / sinTheta
	return Quat{
		W: a*q.W + b*r.W,
		X: a*q.X + b*r.X,
		Y: a*q.Y + b*r.Y,
		Z: a*q.Z + b*r.Z,
	}.Normalize()
}
