package dsp

// Extremum is a local maximum or minimum of a sampled signal.
type Extremum struct {
	Index int     // sample index
	Value float64 // sample value
	Max   bool    // true for a local maximum, false for a minimum
}

// appendLocalExtrema appends every strict local maximum and minimum of x
// to out, so hot loops can recycle the slice. Plateaus are reported once
// at their centre sample; the endpoints are never reported. Instead of
// the naive three-point test at every position, the scan skips whole
// monotone runs — between two direction changes each interior sample
// costs one load, one comparison and one increment, and the extremum
// logic only runs at run boundaries. On the low-passed signals the
// tracker re-scans every peak cycle, runs are tens of samples long,
// which makes this the cheapest form of the scan that still reports
// identical results. Equivalence with the naive test is
// pinned by TestAppendLocalExtremaMatchesReference and FuzzLocalExtrema,
// including the awkward cases: plateaus (reported once at their centre),
// NaN runs (no extremum touches a NaN — every comparison is false, which
// the dir=0 state reproduces) and equal-infinity plateaus (value
// equality, so they collapse like any other plateau).
func appendLocalExtrema(out []Extremum, x []float64) []Extremum {
	n := len(x)
	if n < 3 {
		return out
	}
	// dir encodes how the signal arrived at position i: +1 strictly
	// ascending, -1 strictly descending, 0 unusable (plateau from the
	// edge, or a NaN boundary — both make the left-hand comparison of the
	// three-point test false).
	var dir int
	switch {
	case x[1] > x[0]:
		dir = 1
	case x[1] < x[0]:
		dir = -1
	}
	i := 1
	for i < n-1 {
		v := x[i]
		r := x[i+1]
		switch {
		case r > v:
			// v < right; a minimum needs v < left too, i.e. a descent in.
			if dir < 0 {
				out = append(out, Extremum{Index: i, Value: v, Max: false})
			}
			i++
			for i < n-1 && x[i+1] > x[i] {
				i++
			}
			dir = 1
		case r < v:
			if dir > 0 {
				out = append(out, Extremum{Index: i, Value: v, Max: true})
			}
			i++
			for i < n-1 && x[i+1] < x[i] {
				i++
			}
			dir = -1
		case r == v:
			// Plateau: skip to its end, report once at the centre.
			j := i + 1
			for j < n-1 && x[j+1] == v {
				j++
			}
			if j == n-1 {
				return out
			}
			r = x[j+1]
			switch {
			case dir > 0 && v > r:
				out = append(out, Extremum{Index: (i + j) / 2, Value: v, Max: true})
			case dir < 0 && v < r:
				out = append(out, Extremum{Index: (i + j) / 2, Value: v, Max: false})
			}
			if r > v {
				dir = 1
			} else {
				dir = -1
			}
			i = j + 1
		default:
			// NaN on either side: the three-point test is all-false here,
			// and the NaN also poisons the next position's left-hand side.
			dir = 0
			i++
		}
	}
	return out
}

// PeakOptions controls FindPeaks.
type PeakOptions struct {
	// MinDistance discards the smaller of two maxima closer than this many
	// samples. Zero or negative disables the constraint.
	MinDistance int
	// MinProminence discards maxima whose prominence (height above the
	// higher of the two flanking valleys within the peak's basin) is below
	// this value. Zero or negative disables the constraint.
	MinProminence float64
}

// FindPeaks returns indices of local maxima of x that satisfy opts, in
// ascending index order. It is the peak-detection stage shared by all step
// counters in this repository (paper §II, "peak detection or its variants").
func FindPeaks(x []float64, opts PeakOptions) []int {
	var pf PeakFinder
	return pf.Find(x, opts)
}

// PeakFinder is FindPeaks with reusable scratch: a long-lived finder
// re-scans windows allocation-free once its buffers have grown to the
// working size. Results are identical to FindPeaks. The zero value is
// ready. Not safe for concurrent use; the returned slice is valid until
// the next Find call.
type PeakFinder struct {
	ext     []Extremum
	cand    []int // candidate positions in ext
	order   []int
	removed []bool
	out     []int
}

// FootprintBytes reports the heap bytes held by the finder's recycled
// scratch buffers, by capacity — for memory-budget accounting of
// long-lived finders.
func (pf *PeakFinder) FootprintBytes() int {
	const extremumSize = 24 // Index + Value + Max, padded
	return extremumSize*cap(pf.ext) +
		8*(cap(pf.cand)+cap(pf.order)+cap(pf.out)) + cap(pf.removed)
}

// Find returns the indices of local maxima of x that satisfy opts, in
// ascending index order, reusing the finder's scratch.
func (pf *PeakFinder) Find(x []float64, opts PeakOptions) []int {
	pf.ext = appendLocalExtrema(pf.ext[:0], x)
	pf.cand = pf.cand[:0]
	for k, e := range pf.ext {
		if e.Max {
			pf.cand = append(pf.cand, k)
		}
	}
	if opts.MinProminence > 0 {
		kept := pf.cand[:0]
		for _, k := range pf.cand {
			if pf.prominenceAt(x, k) >= opts.MinProminence {
				kept = append(kept, k)
			}
		}
		pf.cand = kept
	}
	if opts.MinDistance > 0 {
		pf.cand = pf.enforceMinDistance(pf.cand, opts.MinDistance)
	}
	if cap(pf.out) < len(pf.cand) {
		pf.out = make([]int, len(pf.cand))
	}
	pf.out = pf.out[:len(pf.cand)]
	for i, k := range pf.cand {
		pf.out[i] = pf.ext[k].Index
	}
	return pf.out
}

// prominenceAt computes the prominence of the maximum at ext[k] by walking
// the extrema list instead of raw samples. Between consecutive extrema the
// signal is monotone, so on each side the running minimum only updates at
// minima, and the sample-level scan would stop (at a value strictly above
// the peak) exactly inside the ascent to the first strictly higher
// maximum. The unreported signal endpoints bound the outermost monotone
// run, so they join the minimum only when the walk runs off the list and
// they do not themselves exceed the peak. Identical to prominence(), in
// O(extrema in basin) instead of O(samples in basin).
func (pf *PeakFinder) prominenceAt(x []float64, k int) float64 {
	h := pf.ext[k].Value
	leftMin := h
	stopped := false
	for i := k - 1; i >= 0; i-- {
		e := pf.ext[i]
		if e.Max {
			if e.Value > h {
				stopped = true
				break
			}
			continue
		}
		if e.Value < leftMin {
			leftMin = e.Value
		}
	}
	if !stopped {
		if v := x[0]; v <= h && v < leftMin {
			leftMin = v
		}
	}
	rightMin := h
	stopped = false
	for i := k + 1; i < len(pf.ext); i++ {
		e := pf.ext[i]
		if e.Max {
			if e.Value > h {
				stopped = true
				break
			}
			continue
		}
		if e.Value < rightMin {
			rightMin = e.Value
		}
	}
	if !stopped {
		if v := x[len(x)-1]; v <= h && v < rightMin {
			rightMin = v
		}
	}
	base := leftMin
	if rightMin > base {
		base = rightMin
	}
	return h - base
}

// enforceMinDistance greedily keeps the tallest peaks, discarding any peak
// within dist samples of an already-kept taller one (stable for ties),
// filtering the candidate ext positions in place with recycled
// order/removed scratch.
func (pf *PeakFinder) enforceMinDistance(cand []int, dist int) []int {
	if len(cand) == 0 {
		return cand
	}
	if cap(pf.order) < len(cand) {
		pf.order = make([]int, len(cand))
		pf.removed = make([]bool, len(cand))
	}
	order := pf.order[:len(cand)]
	removed := pf.removed[:len(cand)]
	for i := range order {
		order[i] = i
		removed[i] = false
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && pf.ext[cand[order[j]]].Value > pf.ext[cand[order[j-1]]].Value; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		if removed[i] {
			continue
		}
		for j := range cand {
			if j == i || removed[j] {
				continue
			}
			d := pf.ext[cand[j]].Index - pf.ext[cand[i]].Index
			if d < 0 {
				d = -d
			}
			if d < dist {
				removed[j] = true
			}
		}
	}
	kept := cand[:0]
	for i, k := range cand {
		if !removed[i] {
			kept = append(kept, k)
		}
	}
	return kept
}

// prominence computes a peak's prominence: its height above the higher of
// the minimum values between the peak and the nearest higher terrain (or
// the signal edge) on each side.
func prominence(x []float64, peak int) float64 {
	h := x[peak]
	leftMin := h
	for i := peak - 1; i >= 0; i-- {
		if x[i] > h {
			break
		}
		if x[i] < leftMin {
			leftMin = x[i]
		}
	}
	rightMin := h
	for i := peak + 1; i < len(x); i++ {
		if x[i] > h {
			break
		}
		if x[i] < rightMin {
			rightMin = x[i]
		}
	}
	base := leftMin
	if rightMin > base {
		base = rightMin
	}
	return h - base
}

// ZeroCrossings returns the indices i where x crosses zero between samples
// i and i+1 (sign change), or where x[i] is exactly zero with a sign change
// around it. Each crossing is reported at the sample nearest to the
// crossing point.
func ZeroCrossings(x []float64) []int {
	return AppendZeroCrossings(nil, x)
}

// AppendZeroCrossings is ZeroCrossings appending into dst, so hot loops
// can recycle the slice.
func AppendZeroCrossings(dst []int, x []float64) []int {
	out := dst
	for i := 0; i+1 < len(x); i++ {
		a, b := x[i], x[i+1]
		if a == 0 {
			// Report exact zeros once, when the neighbourhood changes sign.
			if i > 0 && sign(x[i-1])*sign(b) < 0 {
				out = append(out, i)
			}
			continue
		}
		if a*b < 0 {
			// Linear interpolation picks the nearer sample.
			frac := a / (a - b)
			if frac < 0.5 {
				out = append(out, i)
			} else {
				out = append(out, i+1)
			}
		}
	}
	return out
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
