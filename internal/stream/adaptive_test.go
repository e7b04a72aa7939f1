package stream

import (
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/trace"
)

// TestAdaptiveDelta verifies the streaming tracker honours
// Config.AdaptiveDelta: the decision threshold is driven by the adaptive
// estimator (staying inside its clamp band) and clean walking still
// counts normally.
func TestAdaptiveDelta(t *testing.T) {
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(),
		trace.ActivityWalking, 60)
	if err != nil {
		t.Fatal(err)
	}

	tk, err := New(Config{SampleRate: rec.Trace.SampleRate, AdaptiveDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	if tk.dec.Adaptive == nil {
		t.Fatal("AdaptiveDelta did not attach an adaptive threshold")
	}
	fixed, err := New(Config{SampleRate: rec.Trace.SampleRate})
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range rec.Trace.Samples {
		tk.Push(s)
		fixed.Push(s)
	}
	tk.Flush()
	fixed.Flush()

	const paperDelta = 0.0325
	if d := tk.Threshold(); d < paperDelta/2 || d > paperDelta*2 {
		t.Errorf("adaptive threshold = %v, outside clamp [%v, %v]", d, paperDelta/2, paperDelta*2)
	}
	if tk.Steps() == 0 {
		t.Fatal("adaptive tracker counted no steps")
	}
	lo, hi := fixed.Steps()*8/10, fixed.Steps()*12/10
	if tk.Steps() < lo || tk.Steps() > hi {
		t.Errorf("adaptive steps = %d, fixed steps = %d", tk.Steps(), fixed.Steps())
	}
}
