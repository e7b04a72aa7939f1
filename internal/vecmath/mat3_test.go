package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func matAlmostEq(a, b Mat3, tol float64) bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(a.M[i][j], b.M[i][j], tol) {
				return false
			}
		}
	}
	return true
}

// transpose and det are test-side matrix algebra for checking that the
// rotation constructors build proper rotations (R·Rᵀ = I, det R = 1).
func transpose(a Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out.M[i][j] = a.M[j][i]
		}
	}
	return out
}

func det(a Mat3) float64 {
	m := a.M
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

func TestIdentity(t *testing.T) {
	id := Identity()
	v := V3(1, 2, 3)
	if got := id.MulVec(v); !vecAlmostEq(got, v, eps) {
		t.Errorf("I*v = %v, want %v", got, v)
	}
	if got := det(id); !almostEq(got, 1, eps) {
		t.Errorf("det(I) = %v, want 1", got)
	}
}

func TestRotZ(t *testing.T) {
	// 90 degrees about Z maps +X to +Y.
	r := RotZ(math.Pi / 2)
	if got := r.MulVec(V3(1, 0, 0)); !vecAlmostEq(got, V3(0, 1, 0), eps) {
		t.Errorf("RotZ(90)*x = %v, want +y", got)
	}
	// Z axis unchanged.
	if got := r.MulVec(V3(0, 0, 1)); !vecAlmostEq(got, V3(0, 0, 1), eps) {
		t.Errorf("RotZ(90)*z = %v, want +z", got)
	}
}

func TestRotXAndRotY(t *testing.T) {
	// 90 degrees about X maps +Y to +Z.
	if got := RotX(math.Pi / 2).MulVec(V3(0, 1, 0)); !vecAlmostEq(got, V3(0, 0, 1), eps) {
		t.Errorf("RotX(90)*y = %v, want +z", got)
	}
	// A rotation about Y, composed by turning the X axis onto Y: 90
	// degrees about Y maps +Z to +X.
	rotY := RotZ(math.Pi / 2).Mul(RotX(math.Pi / 2)).Mul(RotZ(-math.Pi / 2))
	if got := rotY.MulVec(V3(0, 0, 1)); !vecAlmostEq(got, V3(1, 0, 0), eps) {
		t.Errorf("RotY(90)*z = %v, want +x", got)
	}
}

func TestRotationComposition(t *testing.T) {
	a, b := 0.3, 0.7
	combined := RotZ(a).Mul(RotZ(b))
	direct := RotZ(a + b)
	if !matAlmostEq(combined, direct, eps) {
		t.Error("RotZ(a)*RotZ(b) != RotZ(a+b)")
	}
}

func TestTransposeIsInverseForRotations(t *testing.T) {
	r := RotZ(0.4).Mul(RotX(1.1)).Mul(RotZ(-0.6))
	prod := r.Mul(transpose(r))
	if !matAlmostEq(prod, Identity(), 1e-12) {
		t.Error("R * R^T != I for a rotation matrix")
	}
	if got := det(r); !almostEq(got, 1, 1e-12) {
		t.Errorf("det(R) = %v, want 1", got)
	}
}

func TestRotationPreservesNormProperty(t *testing.T) {
	f := func(angle float64, v Vec3) bool {
		angle = clamp(angle)
		v = clampVec(v)
		r := RotZ(angle).Mul(RotX(angle / 2)).Mul(RotZ(angle / 3))
		return almostEq(r.MulVec(v).Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
