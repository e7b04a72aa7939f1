package vecmath

import "math"

// Mat3 is a 3x3 matrix in row-major order. The zero value is the zero
// matrix; use Identity for the multiplicative identity.
type Mat3 struct {
	M [3][3]float64
}

// Identity returns the 3x3 identity matrix.
func Identity() Mat3 {
	var m Mat3
	m.M[0][0], m.M[1][1], m.M[2][2] = 1, 1, 1
	return m
}

// Mul returns the matrix product a * b.
func (a Mat3) Mul(b Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += a.M[i][k] * b.M[k][j]
			}
			out.M[i][j] = s
		}
	}
	return out
}

// MulVec returns the matrix-vector product a * v.
func (a Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		X: a.M[0][0]*v.X + a.M[0][1]*v.Y + a.M[0][2]*v.Z,
		Y: a.M[1][0]*v.X + a.M[1][1]*v.Y + a.M[1][2]*v.Z,
		Z: a.M[2][0]*v.X + a.M[2][1]*v.Y + a.M[2][2]*v.Z,
	}
}

// RotZ returns the rotation matrix for a rotation of angle radians about the
// Z (vertical) axis, counter-clockwise when viewed from +Z.
func RotZ(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	var m Mat3
	m.M = [3][3]float64{
		{c, -s, 0},
		{s, c, 0},
		{0, 0, 1},
	}
	return m
}

// RotX returns the rotation matrix for a rotation of angle radians about the
// X (anterior) axis.
func RotX(angle float64) Mat3 {
	c, s := math.Cos(angle), math.Sin(angle)
	var m Mat3
	m.M = [3][3]float64{
		{1, 0, 0},
		{0, c, -s},
		{0, s, c},
	}
	return m
}
