package main

import (
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var s sampleSet
	for i := 1000; i >= 1; i-- { // insertion order must not matter
		s.add(float64(i))
	}
	if v, beyond := s.quantile(0.5); v != 500 || beyond != 500 {
		t.Errorf("p50 = %v beyond %d, want 500 beyond 500", v, beyond)
	}
	if v, beyond := s.quantile(0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 = %v beyond %d, want 990 beyond 10", v, beyond)
	}
	if v, beyond := s.quantile(1); v != 1000 || beyond != 0 {
		t.Errorf("p100 = %v beyond %d, want 1000 beyond 0", v, beyond)
	}
	var empty sampleSet
	if v, _ := empty.quantile(0.5); !math.IsNaN(v) {
		t.Errorf("empty p50 = %v, want NaN", v)
	}
}

func TestSummarizeNeedsTenBeyondP99(t *testing.T) {
	var s sampleSet
	for i := 0; i < 999; i++ {
		s.add(float64(i))
	}
	if _, err := summarize("x", &s); err == nil {
		t.Fatal("999 samples (9 beyond p99) accepted")
	}
	s.add(999)
	tm, err := summarize("x", &s)
	if err != nil {
		t.Fatalf("1000 samples rejected: %v", err)
	}
	if tm.N != 1000 || tm.Beyond != 10 || tm.P99 != 989 || tm.P50 != 499 {
		t.Errorf("summary = %+v", tm)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// serveBin builds ptrack-serve once for the end-to-end self-tests.
func serveBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs ptrack-serve")
	}
	bin := filepath.Join(t.TempDir(), "ptrack-serve")
	cmd := exec.Command("go", "build", "-o", bin, "ptrack/cmd/ptrack-serve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("build ptrack-serve: %v", err)
	}
	return bin
}

func smallEnv(t *testing.T, bin string, seed int64, seconds float64) *env {
	return &env{
		serveBin: bin, srvCPU: -1, workDir: t.TempDir(), seed: seed, seconds: seconds,
		guard: newConnGuard(runtime.NumCPU()), log: io.Discard, dropPush: -1, small: true,
	}
}

// TestDroppedPushIsNamed drops one measured push of one fleet session:
// the server never sees it, the reference does, and the run must count
// the mismatch as a failure that names the session.
func TestDroppedPushIsNamed(t *testing.T) {
	bin := serveBin(t)
	e := smallEnv(t, bin, 7, 3)
	e.dropPush = 0 // the first window push of session 0
	o, err := runFleet(e)
	if err != nil {
		t.Fatal(err)
	}
	if o.e2e["success_rate"] >= 1 {
		t.Fatalf("success_rate = %v with a dropped push", o.e2e["success_rate"])
	}
	named := false
	for _, f := range o.failures {
		named = named || strings.Contains(f, "fleet-7-0000") && strings.Contains(f, "reference")
	}
	if !named {
		t.Errorf("failures do not name session fleet-7-0000: %q", o.failures)
	}
	if peak := o.layers["loadgen.peak_conns"]; peak > float64(runtime.NumCPU()) {
		t.Errorf("peak connections %v > nproc", peak)
	}
}

// TestInputsDeterministic: the same seed generates byte-identical
// request bodies, another seed different ones, and a clean run passes
// its own correctness gate.
func TestInputsDeterministic(t *testing.T) {
	bin := serveBin(t)
	var digests []string
	for _, seed := range []int64{3, 3, 4} {
		o, err := runHot(smallEnv(t, bin, seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("seed %d: %d failed operations: %q", seed, o.failed, o.failures)
		}
		digests = append(digests, o.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("seed 3 twice gave digests %s and %s", digests[0], digests[1])
	}
	if digests[0] == digests[2] {
		t.Errorf("seeds 3 and 4 gave the same digest %s", digests[0])
	}
}
