package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ptrack/internal/trace"
)

// TestNextBlockMatchesNext pins block-size invariance: the block size
// changes only how samples are grouped, never which samples arrive.
// Reading the next sample alone (max=1) is the reference for block
// sizes that divide, straddle and exceed the payload, and for a
// one-byte-per-read reader that ends every block on a refill boundary.
func TestNextBlockMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var want []trace.Sample
	nd := []byte(nil)
	bin := AppendBinaryHeader(nil)
	for i := 0; i < 300; i++ {
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
		one, err := drain(NewDecoder(bytes.NewReader(tc.buf), tc.ct), 1)
		if err != nil || !reflect.DeepEqual(one, want) {
			t.Fatalf("%s/max=1: %d samples, err %v; want the %d encoded", tc.name, len(one), err, len(want))
		}
		for _, max := range []int{3, 64, 300, 1000} {
			got, err := drain(NewDecoder(bytes.NewReader(tc.buf), tc.ct), max)
			if err != nil || !reflect.DeepEqual(got, one) {
				t.Fatalf("%s/max=%d: block decode diverges from max=1 (err %v)", tc.name, max, err)
			}
		}
		d := NewDecoder(iotest{r: bytes.NewReader(tc.buf)}, tc.ct)
		got, err := drain(d, 64)
		if err != nil || !reflect.DeepEqual(got, one) {
			t.Fatalf("%s: one-byte-read block decode diverges (err %v)", tc.name, err)
		}
		if d.Decoded() != len(want) {
			t.Fatalf("%s: Decoded() = %d, want %d", tc.name, d.Decoded(), len(want))
		}
	}
}

// TestNextBlockPartialOnError pins the samples-AND-error contract: the
// decoded prefix arrives together with the error that stopped the block.
func TestNextBlockPartialOnError(t *testing.T) {
	buf := AppendBinaryHeader(nil)
	buf = AppendSampleBinary(buf, trace.Sample{T: 1})
	buf = AppendSampleBinary(buf, trace.Sample{T: 2})
	buf = append(buf, 0xEE) // truncated third frame
	d := NewDecoder(bytes.NewReader(buf), ContentTypeBinary)
	block, err := d.NextBlock(nil, 64)
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
	if len(block) != 2 || block[0].T != 1 || block[1].T != 2 {
		t.Fatalf("block = %+v, want the two whole frames", block)
	}
	if d.Decoded() != 2 {
		t.Fatalf("Decoded() = %d, want 2", d.Decoded())
	}
}

// TestNextBlockAllocFree extends the no-alloc bar of TestDecodeAllocFree
// to block sizes other than the server's: one sample per call, a size
// that straddles refills, and one larger than the whole payload.
func TestNextBlockAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
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
			for _, max := range []int{1, 3, 1000} {
				r := bytes.NewReader(tc.buf)
				d := NewDecoder(r, tc.ct)
				block := make([]trace.Sample, 0, max)
				allocs := testing.AllocsPerRun(50, func() {
					if err := decodePass(d, r, tc.buf, block, max); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 0 {
					t.Fatalf("max=%d: block decode allocated %.1f times per pass, want 0", max, allocs)
				}
			}
		})
	}
}
