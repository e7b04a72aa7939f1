package wire

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ptrack/internal/trace"
)

// sameTraces compares decoded traces field by field, floats by bits.
func sameTraces(a, b []*trace.Trace) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := a[i], b[i]
		if !same(x.SampleRate, y.SampleRate) || x.Label != y.Label ||
			len(x.Samples) != len(y.Samples) || (x.Samples == nil) != (y.Samples == nil) {
			return false
		}
		for j, s := range x.Samples {
			u := y.Samples[j]
			if !same(s.T, u.T) || !same(s.Accel.X, u.Accel.X) || !same(s.Accel.Y, u.Accel.Y) ||
				!same(s.Accel.Z, u.Accel.Z) || !same(s.Gyro.X, u.Gyro.X) || !same(s.Gyro.Y, u.Gyro.Y) ||
				!same(s.Gyro.Z, u.Gyro.Z) || !same(s.Yaw, u.Yaw) {
				return false
			}
		}
	}
	return true
}

// unmarshalBatch is the reference decoding: encoding/json into the wire
// types, then ToTrace.
func unmarshalBatch(t *testing.T, body []byte) []*trace.Trace {
	t.Helper()
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("json.Unmarshal: %v\n%s", err, body)
	}
	out := make([]*trace.Trace, len(req.Traces))
	for i := range req.Traces {
		out[i] = req.Traces[i].ToTrace()
	}
	return out
}

// batchGen writes valid batch bodies with random key order, whitespace
// and float spellings.
type batchGen struct {
	rng *rand.Rand
	sb  strings.Builder
}

func (g *batchGen) ws() {
	g.sb.WriteString([]string{"", "", " ", "\n", "\t", "\r\n  "}[g.rng.Intn(6)])
}

func (g *batchGen) num(v float64) {
	g.ws()
	switch g.rng.Intn(4) {
	case 0:
		g.sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	case 1:
		g.sb.WriteString(strconv.FormatFloat(v, 'e', -1, 64))
	case 2:
		g.sb.WriteString(strconv.FormatFloat(v, 'E', 17, 64))
	default:
		g.sb.WriteString(strconv.FormatFloat(v, 'f', -1, 64))
	}
	g.ws()
}

func (g *batchGen) value() float64 {
	switch g.rng.Intn(5) {
	case 0:
		return float64(g.rng.Intn(200) - 100)
	case 1:
		return g.rng.NormFloat64() * 1e-7
	case 2:
		return g.rng.NormFloat64() * 1e12
	default:
		return g.rng.NormFloat64() * 10
	}
}

func (g *batchGen) trace() {
	fields := []func(){
		func() { g.sb.WriteString(`"rate":`); g.num([]float64{100, 50, 0, 99.5}[g.rng.Intn(4)]) },
		func() {
			g.sb.WriteString(`"label":`)
			g.ws()
			g.sb.WriteString([]string{`"walking"`, `"stepping"`, `"walk\u0069ng"`, `"\"odd\\label\/"`, `""`, `"é"`}[g.rng.Intn(6)])
			g.ws()
		},
		func() {
			g.sb.WriteString(`"samples":`)
			g.ws()
			g.sb.WriteByte('[')
			n := g.rng.Intn(6)
			for i := 0; i < n; i++ {
				if i > 0 {
					g.sb.WriteByte(',')
				}
				g.ws()
				g.sb.WriteByte('[')
				for k := 0; k < 8; k++ {
					if k > 0 {
						g.sb.WriteByte(',')
					}
					g.num(g.value())
				}
				g.sb.WriteByte(']')
				g.ws()
			}
			g.sb.WriteByte(']')
			g.ws()
		},
	}
	g.rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	fields = fields[:1+g.rng.Intn(len(fields))]
	g.sb.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			g.sb.WriteByte(',')
		}
		g.ws()
		f()
	}
	g.sb.WriteByte('}')
}

func (g *batchGen) body() []byte {
	g.sb.Reset()
	g.ws()
	g.sb.WriteString(`{`)
	g.ws()
	g.sb.WriteString(`"traces"`)
	g.ws()
	g.sb.WriteString(`:`)
	g.ws()
	g.sb.WriteByte('[')
	n := g.rng.Intn(4)
	for i := 0; i < n; i++ {
		if i > 0 {
			g.sb.WriteByte(',')
		}
		g.ws()
		g.trace()
		g.ws()
	}
	g.sb.WriteString(`]`)
	g.ws()
	g.sb.WriteString(`}`)
	g.ws()
	return []byte(g.sb.String())
}

// TestDecodeBatchMatchesUnmarshal is the differential check: every
// generated well-formed body decodes to exactly what encoding/json plus
// ToTrace produce.
func TestDecodeBatchMatchesUnmarshal(t *testing.T) {
	g := batchGen{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 2000; i++ {
		body := g.body()
		got, err := DecodeBatch(body, 256)
		if err != nil {
			t.Fatalf("body %d: %v\n%s", i, err, body)
		}
		if want := unmarshalBatch(t, body); !sameTraces(got, want) {
			t.Fatalf("body %d decodes differently from json.Unmarshal\n%s", i, body)
		}
	}
}

// TestDecodeBatchRejects covers the bodies encoding/json accepts or
// misreads but the batch grammar refuses.
func TestDecodeBatchRejects(t *testing.T) {
	frame := `[0,1,2,3,4,5,6,7]`
	for _, tc := range []struct{ name, body string }{
		{"seven-number frame", `{"traces":[{"rate":100,"samples":[[0,1,2,3,4,5,6]]}]}`},
		{"nine-number frame", `{"traces":[{"rate":100,"samples":[[0,1,2,3,4,5,6,7,8]]}]}`},
		{"empty frame", `{"traces":[{"rate":100,"samples":[[]]}]}`},
		{"unknown top-level key", `{"traces":[],"extra":1}`},
		{"unknown trace key", `{"traces":[{"rate":100,"hz":100,"samples":[` + frame + `]}]}`},
		{"duplicate traces", `{"traces":[],"traces":[]}`},
		{"duplicate rate", `{"traces":[{"rate":100,"rate":50,"samples":[]}]}`},
		{"null traces", `{"traces":null}`},
		{"null samples", `{"traces":[{"rate":100,"samples":null}]}`},
		{"null rate", `{"traces":[{"rate":null,"samples":[]}]}`},
		{"null label", `{"traces":[{"rate":100,"label":null,"samples":[]}]}`},
		{"null frame", `{"traces":[{"rate":100,"samples":[null]}]}`},
		{"null body", `null`},
		{"trailing data", `{"traces":[]} x`},
		{"second object", `{"traces":[]}{"traces":[]}`},
		{"unterminated", `{"traces":[{"rate":100,"samples":[` + frame},
		{"string number", `{"traces":[{"rate":"100","samples":[]}]}`},
		{"bad number", `{"traces":[{"rate":1e,"samples":[]}]}`},
		{"missing comma", `{"traces":[{"rate":100 "samples":[]}]}`},
		{"control character", "{\"traces\":[{\"label\":\"a\tb\"}]}"},
		{"empty", ``},
	} {
		if _, err := DecodeBatch([]byte(tc.body), 256); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", tc.name, err)
		}
	}
}

// TestDecodeBatchTraceCap: the decoder stops at the first trace beyond
// the cap, so a malformed trace past it is never read.
func TestDecodeBatchTraceCap(t *testing.T) {
	one := `{"rate":100,"samples":[[0,1,2,3,4,5,6,7]]}`
	body := `{"traces":[` + strings.Repeat(one+",", 3) + `{"rate":"junk"}]}`
	if _, err := DecodeBatch([]byte(body), 3); !errors.Is(err, ErrTooManyTraces) {
		t.Fatalf("err = %v, want ErrTooManyTraces", err)
	}
	got, err := DecodeBatch([]byte(`{"traces":[`+strings.Repeat(one+",", 2)+one+`]}`), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("3 traces at cap 3: %d traces, err %v", len(got), err)
	}
}

// TestDecodeBatchNonFinite: numbers follow the NDJSON sample grammar,
// so NaN and Inf reach admission instead of failing the whole body.
func TestDecodeBatchNonFinite(t *testing.T) {
	got, err := DecodeBatch([]byte(`{"traces":[{"rate":100,"samples":[[0,NaN,+Inf,-Inf,0,0,0,0]]}]}`), 256)
	if err != nil {
		t.Fatal(err)
	}
	s := got[0].Samples[0]
	if !math.IsNaN(s.Accel.X) || !math.IsInf(s.Accel.Y, 1) || !math.IsInf(s.Accel.Z, -1) {
		t.Errorf("sample = %+v", s)
	}
}

// FuzzDecodeBatch: the decoder never panics, and every body it accepts
// survives a json.Marshal round trip unchanged. Bodies with non-finite
// numbers skip the round trip: encoding/json cannot encode them.
func FuzzDecodeBatch(f *testing.F) {
	g := batchGen{rng: rand.New(rand.NewSource(2))}
	for i := 0; i < 8; i++ {
		f.Add(g.body())
	}
	f.Add([]byte(`{"traces":[{"rate":100,"samples":[[0,1,2,3,4,5,6]]}]}`))
	f.Add([]byte(`{"traces":[{"rate":100,"samples":[[0,NaN,0,0,0,0,0,0]]}]}`))
	f.Add([]byte(`{"traces":[{"rate":0x1p-2,"label":"walking","samples":[]}]}`))
	f.Add([]byte(`{"traces":null}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeBatch(body, 256)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTooManyTraces) {
				t.Fatalf("unclassified error %v", err)
			}
			return
		}
		req := BatchRequest{Traces: make([]BatchTrace, len(got))}
		for i, tr := range got {
			req.Traces[i] = FromTrace(tr)
		}
		again, err := json.Marshal(req)
		if err != nil {
			return // non-finite numbers
		}
		back, err := DecodeBatch(again, 256)
		if err != nil {
			t.Fatalf("re-encoded body refused: %v\n%s", err, again)
		}
		if !sameTraces(got, back) {
			t.Fatalf("round trip changed the traces\n in: %s\nout: %s", body, again)
		}
		if !sameTraces(got, unmarshalBatch(t, again)) {
			t.Fatalf("json.Unmarshal disagrees on the re-encoded body\n%s", again)
		}
	})
}
