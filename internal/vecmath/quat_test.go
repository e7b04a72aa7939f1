package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAxisAngleRotate(t *testing.T) {
	tests := []struct {
		name  string
		axis  Vec3
		angle float64
		in    Vec3
		want  Vec3
	}{
		{"z90-x-to-y", V3(0, 0, 1), math.Pi / 2, V3(1, 0, 0), V3(0, 1, 0)},
		{"x90-y-to-z", V3(1, 0, 0), math.Pi / 2, V3(0, 1, 0), V3(0, 0, 1)},
		{"y90-z-to-x", V3(0, 1, 0), math.Pi / 2, V3(0, 0, 1), V3(1, 0, 0)},
		{"full-turn", V3(0, 0, 1), 2 * math.Pi, V3(1, 2, 3), V3(1, 2, 3)},
		{"zero-axis-identity", Vec3{}, 1.3, V3(1, 2, 3), V3(1, 2, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := AxisAngle(tt.axis, tt.angle)
			if got := q.Rotate(tt.in); !vecAlmostEq(got, tt.want, 1e-12) {
				t.Errorf("rotate = %v, want %v", got, tt.want)
			}
		})
	}
}

// The quaternion and matrix forms of the same rotation agree.
func TestQuatMatAgreesWithRotate(t *testing.T) {
	q := AxisAngle(V3(0, 0, 1), 0.8).Mul(AxisAngle(V3(1, 0, 0), -0.3))
	m := RotZ(0.8).Mul(RotX(-0.3))
	v := V3(-2, 5, 1)
	if got, want := m.MulVec(v), q.Rotate(v); !vecAlmostEq(got, want, 1e-12) {
		t.Errorf("matrix rotate = %v, quaternion rotate = %v", got, want)
	}
}

func TestQuatMulComposes(t *testing.T) {
	q1 := AxisAngle(V3(0, 0, 1), 0.5)
	q2 := AxisAngle(V3(0, 0, 1), 0.25)
	v := V3(1, 0, 0)
	got := q1.Mul(q2).Rotate(v)
	want := AxisAngle(V3(0, 0, 1), 0.75).Rotate(v)
	if !vecAlmostEq(got, want, 1e-12) {
		t.Errorf("composed rotate = %v, want %v", got, want)
	}
}

func TestQuatConjInverts(t *testing.T) {
	q := AxisAngle(V3(3, -1, 2), 1.1)
	v := V3(0.5, -0.25, 4)
	if got := q.Conj().Rotate(q.Rotate(v)); !vecAlmostEq(got, v, 1e-12) {
		t.Errorf("q^-1 q v = %v, want %v", got, v)
	}
}

func TestQuatNormalize(t *testing.T) {
	q := Quat{W: 2, X: 0, Y: 0, Z: 0}.Normalize()
	if !almostEq(q.Norm(), 1, eps) {
		t.Errorf("norm = %v, want 1", q.Norm())
	}
	if got := (Quat{}).Normalize(); got != IdentityQuat() {
		t.Errorf("zero normalize = %v, want identity", got)
	}
}

func TestQuatRotatePreservesNormProperty(t *testing.T) {
	f := func(axis, v Vec3, angle float64) bool {
		axis, v = clampVec(axis), clampVec(v)
		angle = clamp(angle)
		q := AxisAngle(axis, angle)
		return almostEq(q.Rotate(v).Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuatRotateLinearProperty(t *testing.T) {
	// Rotation is linear: q(a+b) == q(a) + q(b).
	f := func(axis, a, b Vec3, angle float64) bool {
		axis, a, b = clampVec(axis), clampVec(a), clampVec(b)
		angle = clamp(angle)
		q := AxisAngle(axis, angle)
		lhs := q.Rotate(a.Add(b))
		rhs := q.Rotate(a).Add(q.Rotate(b))
		return vecAlmostEq(lhs, rhs, 1e-6*(1+a.Norm()+b.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
