package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"ptrack/internal/stream"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// FuzzDecodeSamples feeds arbitrary input to the sample decoder in both
// formats, drained through NextBlock (mirroring FuzzReadCSVLenient for
// the CSV path): it must never panic or loop, and anything it accepts
// must round-trip bit-identically through the canonical encoding. The
// first seed byte selects the format so one corpus exercises both.
func FuzzDecodeSamples(f *testing.F) {
	sample := trace.Sample{
		T: 0.01, Accel: vecmath.Vec3{X: 1.25, Y: -9.81, Z: 0.5},
		Gyro: vecmath.Vec3{X: 0.1, Y: 0.2, Z: -0.3}, Yaw: 1.5,
	}
	nd := AppendSample(nil, sample)
	bin := AppendSampleBinary(AppendBinaryHeader(nil), sample)

	f.Add(append([]byte{'j'}, nd...))
	f.Add(append([]byte{'b'}, bin...))
	// Truncated frames and magic.
	f.Add(append([]byte{'b'}, bin[:len(bin)-3]...))
	f.Add([]byte{'b', 'P', 'T'})
	f.Add(append([]byte{'b'}, "XXXX0000000000000000"...))
	// NaN/Inf fields: representable in both formats; the decoders pass
	// them through (admission policy lives in the server, not the codec).
	f.Add(append([]byte{'j'}, `{"t":0,"ax":NaN,"ay":+Inf,"az":-Inf,"yaw":0}`+"\n"...))
	f.Add(append([]byte{'b'}, AppendSampleBinary(AppendBinaryHeader(nil),
		trace.Sample{T: math.NaN(), Yaw: math.Inf(1)})...))
	// Oversized line.
	f.Add(append([]byte{'j'}, `{"t":`+strings.Repeat("9", MaxLineLen+1)+"}\n"...))
	// Structural junk.
	f.Add([]byte{'j', '{', '}'})
	f.Add(append([]byte{'j'}, `{"t":1,"t":2}`+"\n"...))
	f.Add(append([]byte{'j'}, "\n\n\n"...))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ct := ContentTypeNDJSON
		if in[0] == 'b' {
			ct = ContentTypeBinary
		}
		body := in[1:]
		decoded, err := drain(NewDecoder(bytes.NewReader(body), ct), stream.BlockSamples)
		if len(decoded) > len(body) {
			t.Fatalf("decoder produced more samples (%d) than input bytes (%d)", len(decoded), len(body))
		}
		if err != nil {
			return // rejected cleanly; nothing more to check
		}
		// Accepted input must round-trip through the canonical encoding.
		var buf []byte
		if ct == ContentTypeBinary {
			buf = AppendBinaryHeader(nil)
			for _, s := range decoded {
				buf = AppendSampleBinary(buf, s)
			}
		} else {
			for _, s := range decoded {
				buf = AppendSample(buf, s)
			}
		}
		back, err := drain(NewDecoder(bytes.NewReader(buf), ct), stream.BlockSamples)
		if err != nil || len(back) != len(decoded) {
			t.Fatalf("re-decoding %d accepted samples: %d back, err %v", len(decoded), len(back), err)
		}
		for i, want := range decoded {
			if !sameSample(back[i], want) {
				t.Fatalf("sample %d round trip mismatch:\n got %+v\nwant %+v", i, back[i], want)
			}
		}
	})
}

// sameSample compares bit-for-bit so NaN payloads count as equal.
func sameSample(a, b trace.Sample) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.T, b.T) && eq(a.Yaw, b.Yaw) &&
		eq(a.Accel.X, b.Accel.X) && eq(a.Accel.Y, b.Accel.Y) && eq(a.Accel.Z, b.Accel.Z) &&
		eq(a.Gyro.X, b.Gyro.X) && eq(a.Gyro.Y, b.Gyro.Y) && eq(a.Gyro.Z, b.Gyro.Z)
}

// FuzzParseEventJSON: the SSE payload parser must never panic, and
// whatever it accepts must re-encode deterministically.
func FuzzParseEventJSON(f *testing.F) {
	f.Add(`{"t":1.5,"label":"walking","steps_added":2,"strides":[0.7],"total_steps":4,"offset":0.03}`)
	f.Add(`{"t":0,"label":"interference","steps_added":0,"total_steps":0,"offset":0}`)
	f.Add(`{}`)
	f.Add(`{"label":"sprinting"}`)
	f.Fuzz(func(t *testing.T, in string) {
		ev, err := ParseEventJSON([]byte(in))
		if err != nil {
			return
		}
		enc := AppendEvent(nil, ev)
		back, err := ParseEventJSON(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding %s: %v", enc, err)
		}
		if len(back.Strides) == 0 && len(ev.Strides) == 0 {
			back.Strides, ev.Strides = nil, nil
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("event not stable: %+v vs %+v", back, ev)
		}
	})
}
