package wire

import (
	"errors"
	"fmt"

	"ptrack/internal/core"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// BatchRequest is the JSON body of POST /v1/batch: whole traces to run
// through the batch pool in one round trip.
type BatchRequest struct {
	Traces []BatchTrace `json:"traces"`
}

// BatchTrace is one trace on the wire. Samples are 8-element arrays in
// the frame field order (t, ax, ay, az, gx, gy, gz, yaw) — an order of
// magnitude denser than an object per sample.
type BatchTrace struct {
	Rate    float64      `json:"rate"`
	Label   string       `json:"label,omitempty"`
	Samples [][8]float64 `json:"samples"`
}

// BatchResponse is the JSON body answering POST /v1/batch. Results map
// 1:1 onto the request's traces.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// BatchResult is one trace's outcome: exactly one of Result and Error
// is set, mirroring the facade's BatchItem.
type BatchResult struct {
	Result *core.Result `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

// ToTrace materialises the wire form as a trace.
func (bt *BatchTrace) ToTrace() *trace.Trace {
	tr := &trace.Trace{SampleRate: bt.Rate, Label: labelActivity(bt.Label)}
	tr.Samples = make([]trace.Sample, len(bt.Samples))
	for i, f := range bt.Samples {
		tr.Samples[i] = frameSample(f)
	}
	return tr
}

// labelActivity is the activity a wire label names.
func labelActivity(label string) trace.Activity {
	a, _ := trace.ParseActivity(label) // ActivityUnknown for an empty or unknown label
	return a
}

func frameSample(f [8]float64) trace.Sample {
	return trace.Sample{
		T:     f[0],
		Accel: vecmath.Vec3{X: f[1], Y: f[2], Z: f[3]},
		Gyro:  vecmath.Vec3{X: f[4], Y: f[5], Z: f[6]},
		Yaw:   f[7],
	}
}

// FromTrace converts a trace into its wire form.
func FromTrace(tr *trace.Trace) BatchTrace {
	bt := BatchTrace{Rate: tr.SampleRate}
	if tr.Label != trace.ActivityUnknown {
		bt.Label = tr.Label.String()
	}
	bt.Samples = make([][8]float64, len(tr.Samples))
	for i, s := range tr.Samples {
		bt.Samples[i] = [8]float64{
			s.T, s.Accel.X, s.Accel.Y, s.Accel.Z,
			s.Gyro.X, s.Gyro.Y, s.Gyro.Z, s.Yaw,
		}
	}
	return bt
}

// ErrTooManyTraces reports a batch body carrying more traces than the
// decoder's cap; DecodeBatch stops at the first trace beyond it.
var ErrTooManyTraces = errors.New("wire: too many traces in batch")

// DecodeBatch parses a POST /v1/batch body, the JSON encoding of a
// BatchRequest, straight into traces: the result equals json.Unmarshal
// into a BatchRequest followed by ToTrace on each trace, without the
// reflection and the intermediate frames. Keys may come in any order,
// with any JSON whitespace. It is stricter than json.Unmarshal: the
// package's one JSON grammar (the NDJSON sample lines' too) refuses
// unknown or duplicate keys, null values and trailing data, and a frame
// must hold exactly 8 numbers; all wrap ErrFormat. NaN and Inf pass
// through for admission to judge. More than maxTraces traces wrap
// ErrTooManyTraces.
func DecodeBatch(body []byte, maxTraces int) ([]*trace.Trace, error) {
	p := cursor{b: body, what: "batch body"}
	var traces []*trace.Trace
	err := p.object(requestKeys, func(int) error {
		return p.list('[', ']', func() error {
			if len(traces) == maxTraces {
				return fmt.Errorf("%w: at most %d", ErrTooManyTraces, maxTraces)
			}
			tr, err := p.trace()
			traces = append(traces, tr)
			return err
		})
	})
	if err == nil && p.skip() != 0 {
		err = p.errorf("trailing data")
	}
	if err != nil {
		return nil, err
	}
	return traces, nil
}

// The keys of a batch body's objects.
var (
	requestKeys = newKeySet("traces")
	traceKeys   = newKeySet("rate", "label", "samples")
)

// trace parses one BatchTrace object.
func (p *cursor) trace() (*trace.Trace, error) {
	tr := &trace.Trace{Samples: []trace.Sample{}}
	err := p.object(traceKeys, func(k int) (err error) {
		switch k {
		case 0: // rate
			tr.SampleRate, err = p.number()
		case 1: // label
			var l []byte
			l, err = p.str()
			tr.Label = labelActivity(string(l))
		default: // samples
			err = p.list('[', ']', func() error {
				s, err := p.frame()
				tr.Samples = append(tr.Samples, s)
				return err
			})
		}
		return err
	})
	return tr, err
}

// frame parses one sample frame: a list of exactly 8 numbers.
func (p *cursor) frame() (trace.Sample, error) {
	var f [8]float64
	n := 0
	err := p.list('[', ']', func() (err error) {
		if n == len(f) {
			return p.errorf("frame holds more than 8 numbers")
		}
		f[n], err = p.number()
		n++
		return err
	})
	if err == nil && n != len(f) {
		err = p.errorf("frame holds %d numbers, want 8", n)
	}
	return frameSample(f), err
}
