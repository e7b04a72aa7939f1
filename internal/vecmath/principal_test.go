package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestPrincipalAxis2DAlignedCloud(t *testing.T) {
	tests := []struct {
		name  string
		angle float64 // true direction of scatter, radians from +X
	}{
		{"along-x", 0},
		{"along-y", math.Pi / 2},
		{"diagonal", math.Pi / 4},
		{"shallow", 0.2},
		{"steep", 1.3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			dir := V3(math.Cos(tt.angle), math.Sin(tt.angle), 0)
			perp := V3(-math.Sin(tt.angle), math.Cos(tt.angle), 0)
			pts := make([]Vec3, 0, 500)
			for i := 0; i < 500; i++ {
				// Strong spread along dir, weak along perp, plus vertical noise
				// that must be ignored.
				p := dir.Scale(rng.NormFloat64() * 5).
					Add(perp.Scale(rng.NormFloat64() * 0.3)).
					Add(V3(0, 0, rng.NormFloat64()*10))
				pts = append(pts, p)
			}
			axis, ok := PrincipalAxis2D(pts)
			if !ok {
				t.Fatal("no axis found")
			}
			if axis.Z != 0 {
				t.Fatalf("axis not horizontal: %v", axis)
			}
			// Compare up to sign.
			cos := math.Abs(axis.Dot(dir))
			if cos < 0.995 {
				t.Errorf("axis %v misaligned with %v (|cos| = %v)", axis, dir, cos)
			}
		})
	}
}

func TestPrincipalAxis2DDegenerate(t *testing.T) {
	if _, ok := PrincipalAxis2D(nil); ok {
		t.Error("nil points should not yield an axis")
	}
	// Pure vertical motion carries no horizontal energy.
	pts := []Vec3{V3(0, 0, 1), V3(0, 0, -2), V3(0, 0, 3)}
	if _, ok := PrincipalAxis2D(pts); ok {
		t.Error("vertical-only points should not yield an axis")
	}
}

func TestPrincipalAxis2DSignConvention(t *testing.T) {
	pts := []Vec3{V3(-3, 0, 0), V3(3, 0, 0), V3(-1, 0, 0), V3(1, 0, 0)}
	axis, ok := PrincipalAxis2D(pts)
	if !ok {
		t.Fatal("no axis")
	}
	if axis.X < 0 {
		t.Errorf("sign convention violated: %v", axis)
	}
}

func TestPrincipalAxis2DSinglePointCluster(t *testing.T) {
	pts := []Vec3{V3(2, 3, 0), V3(2, 3, 0), V3(2, 3, 0)}
	if _, ok := PrincipalAxis2D(pts); ok {
		t.Error("zero-variance cloud should not yield an axis")
	}
}
