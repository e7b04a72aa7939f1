package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"ptrack/internal/vecmath"
)

func TestActivityString(t *testing.T) {
	tests := []struct {
		a    Activity
		want string
	}{
		{ActivityWalking, "walking"},
		{ActivityStepping, "stepping"},
		{ActivitySpoofing, "spoofing"},
		{Activity(99), "activity(99)"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.a), got, tt.want)
		}
	}
}

func TestParseActivityRoundTrip(t *testing.T) {
	for a := ActivityUnknown; a <= ActivityRunning; a++ {
		got, err := ParseActivity(a.String())
		if err != nil {
			t.Fatalf("parse %v: %v", a, err)
		}
		if got != a {
			t.Errorf("round trip %v -> %v", a, got)
		}
	}
	if _, err := ParseActivity("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func TestPedestrian(t *testing.T) {
	peds := []Activity{ActivityWalking, ActivityStepping, ActivityJogging, ActivityRunning}
	for _, a := range peds {
		if !a.Pedestrian() {
			t.Errorf("%v should be pedestrian", a)
		}
	}
	for _, a := range []Activity{ActivityEating, ActivityPoker, ActivityPhoto, ActivityGaming, ActivitySpoofing, ActivityIdle, ActivityUnknown} {
		if a.Pedestrian() {
			t.Errorf("%v should not be pedestrian", a)
		}
	}
}

func makeTrace(rate float64, n int, label Activity) *Trace {
	tr := &Trace{SampleRate: rate, Label: label}
	for i := 0; i < n; i++ {
		tr.Samples = append(tr.Samples, Sample{
			T:     float64(i) / rate,
			Accel: vecmath.V3(float64(i), -float64(i), 9.81),
			Gyro:  vecmath.V3(0.01*float64(i), 0, -0.02*float64(i)),
			Yaw:   0.1 * float64(i),
		})
	}
	return tr
}

func TestTraceDtDuration(t *testing.T) {
	tr := makeTrace(100, 101, ActivityWalking)
	if got := tr.Dt(); got != 0.01 {
		t.Errorf("dt = %v", got)
	}
	if got := tr.Duration(); got != time.Second {
		t.Errorf("duration = %v", got)
	}
	empty := &Trace{}
	if empty.Dt() != 0 || empty.Duration() != 0 {
		t.Error("empty trace dt/duration should be 0")
	}
}

func TestAccelSeriesCopies(t *testing.T) {
	tr := makeTrace(100, 3, ActivityWalking)
	x, y, z := tr.AccelSeries()
	if len(x) != 3 || len(y) != 3 || len(z) != 3 {
		t.Fatal("bad lengths")
	}
	x[0] = 999
	if tr.Samples[0].Accel.X == 999 {
		t.Error("AccelSeries aliases trace storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := makeTrace(100, 50, ActivityStepping)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleRate != tr.SampleRate {
		t.Errorf("rate = %v", got.SampleRate)
	}
	if got.Label != tr.Label {
		t.Errorf("label = %v", got.Label)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("samples = %d, want %d", len(got.Samples), len(tr.Samples))
	}
	for i := range tr.Samples {
		a, b := tr.Samples[i], got.Samples[i]
		if math.Abs(a.T-b.T) > 1e-12 || a.Accel != b.Accel || a.Gyro != b.Gyro || a.Yaw != b.Yaw {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad-rate", "#rate,abc\n"},
		{"bad-label", "#label,zzz\n"},
		{"bad-meta-key", "#wat,1\n"},
		{"bad-header", "#rate,100\nfoo,bar,baz,qux,quux\n"},
		{"bad-field", "#rate,100\nt,ax,ay,az,yaw\n0,1,2,x,0\n"},
		{"short-row", "#rate,100\nt,ax,ay,az,yaw\n0,1\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadCSVLegacyFormat(t *testing.T) {
	in := "#rate,100\n#label,walking\nt,ax,ay,az,yaw\n0,1,2,3,0.5\n0.01,4,5,6,0.6\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 2 {
		t.Fatalf("samples = %d", len(tr.Samples))
	}
	s0 := tr.Samples[0]
	if s0.Accel != vecmath.V3(1, 2, 3) || s0.Yaw != 0.5 {
		t.Errorf("sample 0 = %+v", s0)
	}
	if s0.Gyro != (vecmath.Vec3{}) {
		t.Errorf("legacy gyro should be zero, got %v", s0.Gyro)
	}
	if tr.Label != ActivityWalking || tr.SampleRate != 100 {
		t.Errorf("metadata: %v %v", tr.Label, tr.SampleRate)
	}
}

func TestGroundTruthJSONRoundTrip(t *testing.T) {
	g := &GroundTruth{
		Steps:     []StepTruth{{T: 0.5, Stride: 0.7}, {T: 1.1, Stride: 0.72}},
		Distance:  1.42,
		ArmLength: 0.62,
		LegLength: 0.9,
		Activities: []LabeledSpan{
			{Start: 0, End: 10, Activity: ActivityWalking},
			{Start: 10, End: 15, Activity: ActivityEating},
		},
		Path: []vecmath.Vec3{{X: 0}, {X: 0.7}, {X: 1.42, Y: 0.1}},
	}
	var buf bytes.Buffer
	if err := WriteGroundTruthJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGroundTruthJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Steps) != 2 || got.Steps[1] != g.Steps[1] {
		t.Errorf("steps = %+v", got.Steps)
	}
	if got.Distance != g.Distance || got.ArmLength != g.ArmLength || got.LegLength != g.LegLength {
		t.Error("scalar fields differ")
	}
	if len(got.Activities) != 2 || got.Activities[1].Activity != ActivityEating {
		t.Errorf("activities = %+v", got.Activities)
	}
	if len(got.Path) != 3 || got.Path[2] != g.Path[2] {
		t.Errorf("path = %+v", got.Path)
	}
}

func TestGroundTruthJSONErrors(t *testing.T) {
	if err := WriteGroundTruthJSON(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil truth accepted")
	}
	if _, err := ReadGroundTruthJSON(strings.NewReader("{bad")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := ReadGroundTruthJSON(strings.NewReader(`{"activities":[{"activity":"zzz"}]}`)); err == nil {
		t.Error("unknown activity accepted")
	}
}

func TestResample(t *testing.T) {
	tr := makeTrace(100, 101, ActivityWalking) // 1 s of data
	down, err := tr.Resample(50)
	if err != nil {
		t.Fatal(err)
	}
	if down.SampleRate != 50 {
		t.Errorf("rate = %v", down.SampleRate)
	}
	if len(down.Samples) < 50 || len(down.Samples) > 52 {
		t.Errorf("downsampled to %d samples, want ~51", len(down.Samples))
	}
	// Linear ramps resample exactly: accel.X was i (slope 100/s).
	for i, s := range down.Samples {
		want := float64(i) * 2 // 50 Hz: every other original index
		if math.Abs(s.Accel.X-want) > 1e-9 {
			t.Fatalf("sample %d accel.X = %v, want %v", i, s.Accel.X, want)
		}
	}
	up, err := tr.Resample(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Samples) < 200 {
		t.Errorf("upsampled to %d samples", len(up.Samples))
	}
	if up.Label != tr.Label {
		t.Error("label lost")
	}
}

func TestResampleErrors(t *testing.T) {
	empty := &Trace{SampleRate: 100}
	if _, err := empty.Resample(50); err == nil {
		t.Error("empty trace accepted")
	}
	tr := makeTrace(100, 10, ActivityWalking)
	if _, err := tr.Resample(0); err == nil {
		t.Error("zero rate accepted")
	}
}
