package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

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
// with any JSON whitespace. It is stricter than json.Unmarshal: unknown
// or duplicate keys, null values, trailing data and frames that do not
// hold exactly 8 numbers wrap ErrFormat. Numbers follow the NDJSON
// sample grammar, so NaN and Inf pass through for admission to judge.
// More than maxTraces traces wrap ErrTooManyTraces.
func DecodeBatch(body []byte, maxTraces int) ([]*trace.Trace, error) {
	p := batchParser{b: body}
	var traces []*trace.Trace
	err := p.object(func(key string) error {
		if key != "traces" {
			return p.errorf("unknown key %q", key)
		}
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

// batchParser is a cursor over one batch body.
type batchParser struct {
	b []byte
	i int
}

func (p *batchParser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: batch body offset %d: %s", ErrFormat, p.i, fmt.Sprintf(format, args...))
}

// skip moves past JSON whitespace and returns the next byte, 0 at the
// end of the body.
func (p *batchParser) skip() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (p *batchParser) expect(c byte) error {
	if p.skip() != c {
		return p.errorf("expected %q", c)
	}
	p.i++
	return nil
}

// list parses a bracketed, comma-separated list, calling elem with the
// cursor on each element.
func (p *batchParser) list(open, close byte, elem func() error) error {
	if err := p.expect(open); err != nil {
		return err
	}
	if p.skip() == close {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch p.skip() {
		case ',':
			p.i++
		case close:
			p.i++
			return nil
		default:
			return p.errorf("expected ',' or %q", close)
		}
	}
}

// object parses a JSON object, calling field with the cursor on each
// key's value. Duplicate keys and null values are refused first.
func (p *batchParser) object(field func(key string) error) error {
	var seen []string
	return p.list('{', '}', func() error {
		key, err := p.str()
		if err != nil {
			return err
		}
		if slices.Contains(seen, key) {
			return p.errorf("duplicate key %q", key)
		}
		seen = append(seen, key)
		if err := p.expect(':'); err != nil {
			return err
		}
		if p.skip(); bytes.HasPrefix(p.b[p.i:], []byte("null")) {
			return p.errorf("null value for key %q", key)
		}
		return field(key)
	})
}

// str parses a JSON string. An escaped one, rare here (labels are plain
// activity names), is unquoted by encoding/json to keep its semantics.
func (p *batchParser) str() (string, error) {
	if p.skip() != '"' {
		return "", p.errorf("expected string")
	}
	start, escaped := p.i, false
	for p.i++; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '\\':
			escaped = true
			p.i++
		case c < 0x20:
			return "", p.errorf("control character in string")
		case c == '"':
			p.i++
			tok := p.b[start:p.i]
			if !escaped {
				return string(tok[1 : len(tok)-1]), nil
			}
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				return "", p.errorf("bad string %s", tok)
			}
			return s, nil
		}
	}
	return "", p.errorf("unterminated string")
}

func (p *batchParser) number() (float64, error) {
	p.skip()
	num, _, err := scanNumber(p.b[p.i:])
	if err != nil {
		return 0, p.errorf("expected number")
	}
	v, err := parseFloat(num)
	if err != nil {
		return 0, p.errorf("bad number %q", num)
	}
	p.i += len(num)
	return v, nil
}

// trace parses one BatchTrace object.
func (p *batchParser) trace() (*trace.Trace, error) {
	tr := &trace.Trace{Samples: []trace.Sample{}}
	err := p.object(func(key string) (err error) {
		switch key {
		case "rate":
			tr.SampleRate, err = p.number()
		case "label":
			var l string
			l, err = p.str()
			tr.Label = labelActivity(l)
		case "samples":
			err = p.list('[', ']', func() error {
				s, err := p.frame()
				tr.Samples = append(tr.Samples, s)
				return err
			})
		default:
			err = p.errorf("unknown key %q", key)
		}
		return err
	})
	return tr, err
}

// frame parses one sample frame: a list of exactly 8 numbers.
func (p *batchParser) frame() (trace.Sample, error) {
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
