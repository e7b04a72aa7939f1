package vecmath

import "math"

// PrincipalAxis2D returns the unit direction (in the XY plane, as a Vec3
// with Z=0) that best fits the horizontal scatter of the given points in the
// least-squares sense: the first principal component of the 2x2 covariance
// of (X, Y). PTrack uses it to recover the anterior (walking) direction from
// horizontal accelerations (paper §III-B2), because arm swing spreads
// acceleration predominantly along the direction of travel.
//
// The sign of the returned axis is chosen so its X component is
// non-negative (ties broken toward +Y); callers that need a specific
// polarity must disambiguate themselves (see project.SignStabilize).
// It returns ok=false when the points carry no horizontal energy.
func PrincipalAxis2D(points []Vec3) (axis Vec3, ok bool) {
	if len(points) == 0 {
		return Vec3{}, false
	}
	var mx, my float64
	for _, p := range points {
		mx += p.X
		my += p.Y
	}
	n := float64(len(points))
	mx /= n
	my /= n

	// 2x2 covariance: [sxx sxy; sxy syy].
	var sxx, sxy, syy float64
	for _, p := range points {
		dx, dy := p.X-mx, p.Y-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx+syy == 0 {
		return Vec3{}, false
	}

	// Largest eigenvalue of the symmetric 2x2 matrix.
	tr := sxx + syy
	det := sxx*syy - sxy*sxy
	disc := tr*tr/4 - det
	if disc < 0 {
		disc = 0
	}
	lambda := tr/2 + math.Sqrt(disc)

	// Eigenvector for lambda. Pick the better-conditioned formula.
	var ax, ay float64
	if math.Abs(sxy) > 1e-12 {
		ax, ay = lambda-syy, sxy
	} else if sxx >= syy {
		ax, ay = 1, 0
	} else {
		ax, ay = 0, 1
	}
	norm := math.Hypot(ax, ay)
	if norm == 0 {
		return Vec3{}, false
	}
	ax /= norm
	ay /= norm
	if ax < 0 || (ax == 0 && ay < 0) {
		ax, ay = -ax, -ay
	}
	return Vec3{X: ax, Y: ay}, true
}
