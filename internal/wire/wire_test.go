package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ptrack/internal/gaitid"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
	"ptrack/internal/vecmath"
)

// randSample draws a sample with full-precision float64 fields — the
// worst case for text round-tripping (17 significant digits).
func randSample(rng *rand.Rand) trace.Sample {
	f := func() float64 { return (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20) }
	return trace.Sample{
		T:     rng.Float64() * 1e4,
		Accel: vecmath.Vec3{X: f(), Y: f(), Z: f()},
		Gyro:  vecmath.Vec3{X: f(), Y: f(), Z: f()},
		Yaw:   f(),
	}
}

// drain decodes d through NextBlock in blocks of max samples, reusing
// one destination buffer the way the server does. It returns every
// sample decoded and the error that ended the stream, nil at a clean
// end.
func drain(d *Decoder, max int) ([]trace.Sample, error) {
	var out, block []trace.Sample
	for {
		var err error
		block, err = d.NextBlock(block, max)
		out = append(out, block...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func decodeAll(t *testing.T, buf []byte, contentType string) []trace.Sample {
	t.Helper()
	out, err := drain(NewDecoder(bytes.NewReader(buf), contentType), stream.BlockSamples)
	if err != nil {
		t.Fatalf("decode sample %d: %v", len(out), err)
	}
	return out
}

func TestSampleRoundTripNDJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want []trace.Sample
	var buf []byte
	for i := 0; i < 500; i++ {
		s := randSample(rng)
		want = append(want, s)
		buf = AppendSample(buf, s)
	}
	got := decodeAll(t, buf, ContentTypeNDJSON)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("NDJSON round trip not bit-identical")
	}
}

func TestSampleRoundTripBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var want []trace.Sample
	buf := AppendBinaryHeader(nil)
	for i := 0; i < 500; i++ {
		s := randSample(rng)
		want = append(want, s)
		buf = AppendSampleBinary(buf, s)
	}
	got := decodeAll(t, buf, ContentTypeBinary)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("binary round trip not bit-identical")
	}
}

// TestDecoderSmallReads feeds the decoders one byte at a time, forcing
// every refill/compaction path.
func TestDecoderSmallReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var want []trace.Sample
	nd := []byte(nil)
	bin := AppendBinaryHeader(nil)
	for i := 0; i < 20; i++ {
		s := randSample(rng)
		want = append(want, s)
		nd = AppendSample(nd, s)
		bin = AppendSampleBinary(bin, s)
	}
	for _, tc := range []struct {
		name, ct string
		buf      []byte
	}{
		{"ndjson", ContentTypeNDJSON, nd},
		{"binary", ContentTypeBinary, bin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := drain(NewDecoder(iotest{r: bytes.NewReader(tc.buf)}, tc.ct), stream.BlockSamples)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("one-byte-read round trip mismatch")
			}
		})
	}
}

// TestDecoderEmptyReads: a Read returning no data and no error is not
// the end of input. One before the data, and one before every byte,
// lose nothing; a reader that never makes progress fails with
// io.ErrNoProgress instead of looking like an empty push.
func TestDecoderEmptyReads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var want []trace.Sample
	nd := []byte(nil)
	bin := AppendBinaryHeader(nil)
	for i := 0; i < 10; i++ {
		s := randSample(rng)
		want = append(want, s)
		nd = AppendSample(nd, s)
		bin = AppendSampleBinary(bin, s)
	}
	for _, tc := range []struct {
		name, ct string
		buf      []byte
	}{
		{"ndjson", ContentTypeNDJSON, nd},
		{"binary", ContentTypeBinary, bin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range []io.Reader{
				&emptyReads{r: bytes.NewReader(tc.buf), stall: 1},
				&emptyReads{r: iotest{r: bytes.NewReader(tc.buf)}, alternate: true},
			} {
				got, err := drain(NewDecoder(r, tc.ct), stream.BlockSamples)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%d of %d samples, err %v", len(got), len(want), err)
				}
			}
			got, err := drain(NewDecoder(&emptyReads{r: bytes.NewReader(tc.buf), stall: maxEmptyReads}, tc.ct), stream.BlockSamples)
			if len(got) != 0 || err != io.ErrNoProgress {
				t.Fatalf("stalled reader: %d samples, err %v; want io.ErrNoProgress", len(got), err)
			}
		})
	}
}

// emptyReads returns 0, nil stall times before delegating to r, then,
// if alternate is set, before every read it delegates.
type emptyReads struct {
	r                  io.Reader
	stall              int
	alternate, stalled bool
}

func (e *emptyReads) Read(p []byte) (int, error) {
	if e.stall > 0 {
		e.stall--
		return 0, nil
	}
	if e.alternate {
		if e.stalled = !e.stalled; e.stalled {
			return 0, nil
		}
	}
	return e.r.Read(p)
}

// iotest yields one byte per Read.
type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func TestDecoderNDJSONVariants(t *testing.T) {
	// Field order and whitespace are free; gyro fields are optional;
	// blank lines and a missing final newline are accepted.
	in := "{\"ax\":1, \"t\":0.5,\"ay\":2,\"az\":3,\"yaw\":0.25}\n" +
		"\n" +
		"{\"t\":1,\"ax\":4,\"ay\":5,\"az\":6,\"gx\":7,\"gy\":8,\"gz\":9,\"yaw\":-1}"
	got := decodeAll(t, []byte(in), ContentTypeNDJSON)
	want := []trace.Sample{
		{T: 0.5, Accel: vecmath.Vec3{X: 1, Y: 2, Z: 3}, Yaw: 0.25},
		{T: 1, Accel: vecmath.Vec3{X: 4, Y: 5, Z: 6}, Gyro: vecmath.Vec3{X: 7, Y: 8, Z: 9}, Yaw: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestDecoderErrors(t *testing.T) {
	cases := []struct {
		name, ct, in string
		wantErr      error
	}{
		{"bad json", ContentTypeNDJSON, "not json\n", ErrFormat},
		{"unknown field", ContentTypeNDJSON, `{"t":1,"bogus":2}` + "\n", ErrFormat},
		{"bad number", ContentTypeNDJSON, `{"t":1x}` + "\n", ErrFormat},
		{"string value", ContentTypeNDJSON, `{"t":"hi"}` + "\n", ErrFormat},
		{"trailing garbage", ContentTypeNDJSON, `{"t":1} extra` + "\n", ErrFormat},
		{"oversized line", ContentTypeNDJSON, `{"t":` + strings.Repeat("1", MaxLineLen+10) + "}\n", ErrLineTooLong},
		{"oversized final line", ContentTypeNDJSON, `{"t":` + strings.Repeat("1", MaxLineLen+10), ErrLineTooLong},
		{"missing magic", ContentTypeBinary, "XXXX" + strings.Repeat("\x00", 64), ErrFormat},
		{"truncated magic", ContentTypeBinary, "PT", ErrFormat},
		{"truncated frame", ContentTypeBinary, BinaryMagic + strings.Repeat("\x00", 63), ErrFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := drain(NewDecoder(strings.NewReader(tc.in), tc.ct), stream.BlockSamples)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestDecoderTruncatedFrameReportsCount(t *testing.T) {
	buf := AppendBinaryHeader(nil)
	buf = AppendSampleBinary(buf, trace.Sample{T: 1})
	buf = append(buf, 0x01, 0x02) // 2 trailing bytes
	d := NewDecoder(bytes.NewReader(buf), ContentTypeBinary)
	got, err := drain(d, stream.BlockSamples)
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "after sample 1 (2 trailing bytes)") {
		t.Fatalf("got %v, want ErrFormat after sample 1", err)
	}
	if len(got) != 1 || d.Decoded() != 1 {
		t.Fatalf("decoded %d samples, Decoded() = %d; want 1", len(got), d.Decoded())
	}
}

// TestDecodeAllocFree pins the steady-state contract: once warmed up,
// with a reused destination block, a full decode pass through NextBlock
// allocates nothing for either format (the same bar the stream scan
// path holds).
func TestDecodeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nd := []byte(nil)
	bin := AppendBinaryHeader(nil)
	for i := 0; i < 200; i++ {
		s := randSample(rng)
		nd = AppendSample(nd, s)
		bin = AppendSampleBinary(bin, s)
	}
	for _, tc := range []struct {
		name, ct string
		buf      []byte
	}{
		{"ndjson", ContentTypeNDJSON, nd},
		{"binary", ContentTypeBinary, bin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.buf)
			d := NewDecoder(r, tc.ct)
			block := make([]trace.Sample, 0, stream.BlockSamples)
			allocs := testing.AllocsPerRun(50, func() {
				if err := decodePass(d, r, tc.buf, block, stream.BlockSamples); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("decode allocated %.1f times per pass, want 0", allocs)
			}
		})
	}
}

func TestEventRoundTrip(t *testing.T) {
	evs := []stream.Event{
		{T: 1.25, Label: gaitid.LabelWalking, StepsAdded: 2, Strides: []float64{0.71234567891234567, 0.69}, TotalSteps: 4, Offset: 0.0123456789012345},
		{T: 3.5, Label: gaitid.LabelInterference, Offset: math.Pi},
		{T: 4.5, Label: gaitid.LabelStepping, StepsAdded: 1, TotalSteps: 5, Offset: 0.01},
	}
	for _, ev := range evs {
		enc := AppendEvent(nil, ev)
		got, err := ParseEventJSON(enc)
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v\nwire %s", got, ev, enc)
		}
		// Determinism: re-encoding the decoded event reproduces the bytes.
		if again := AppendEvent(nil, got); !bytes.Equal(again, enc) {
			t.Fatalf("encoding not deterministic: %s vs %s", again, enc)
		}
	}
}

func TestParseLabelRejectsUnknown(t *testing.T) {
	if _, err := ParseLabel("sprinting"); err == nil {
		t.Fatal("expected error for unknown label")
	}
}

func TestBatchTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{SampleRate: 100, Label: trace.ActivityWalking}
	for i := 0; i < 50; i++ {
		tr.Samples = append(tr.Samples, randSample(rng))
	}
	back := FromTrace(tr)
	got := back.ToTrace()
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("batch trace round trip mismatch")
	}
}

func TestGapRoundTrip(t *testing.T) {
	got := string(AppendGap(nil, 42))
	if got != `{"dropped":42}` {
		t.Fatalf("AppendGap = %s", got)
	}
	n, err := ParseGapJSON([]byte(got))
	if err != nil || n != 42 {
		t.Fatalf("ParseGapJSON = %d, %v; want 42, nil", n, err)
	}
	for _, bad := range []string{``, `{`, `{"dropped":-1}`, `[3]`} {
		if _, err := ParseGapJSON([]byte(bad)); err == nil {
			t.Errorf("ParseGapJSON(%q) accepted", bad)
		}
	}
}
