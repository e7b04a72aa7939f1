package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"ptrack/internal/gaitsim"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// Decode micro-benchmarks, gated by `make bench-guard` through
// cmd/benchjson: ingest decode must hold its ns/sample ceiling and stay
// alloc-free at steady state (allocs/op stays O(1) per pass while
// samples/op is in the thousands, so allocs-per-sample rounds to ~0).
// They drive NextBlock in blocks of stream.BlockSamples, as the server
// does. The payload is a real simulated walking trace — full-precision
// floats, the worst case for the text format.

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	rec, err := gaitsim.SimulateActivity(gaitsim.DefaultProfile(), gaitsim.DefaultConfig(),
		trace.ActivityWalking, 60)
	if err != nil {
		b.Fatal(err)
	}
	return rec.Trace
}

func benchDecode(b *testing.B, contentType string) {
	tr := benchTrace(b)
	var buf []byte
	if contentType == ContentTypeBinary {
		buf = AppendBinaryHeader(buf)
	}
	for _, s := range tr.Samples {
		if contentType == ContentTypeBinary {
			buf = AppendSampleBinary(buf, s)
		} else {
			buf = AppendSample(buf, s)
		}
	}
	r := bytes.NewReader(buf)
	d := NewDecoder(r, contentType)
	block := make([]trace.Sample, 0, stream.BlockSamples)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodePass(d, r, buf, block, stream.BlockSamples); err != nil {
			b.Fatal(err)
		}
	}
	samples := len(tr.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// decodePass rewinds d onto a fresh read of buf and drains it through
// NextBlock max samples at a time into block, the way the server
// decodes a push.
func decodePass(d *Decoder, r *bytes.Reader, buf []byte, block []trace.Sample, max int) error {
	r.Reset(buf)
	d.r, d.start, d.end, d.eof, d.magic = r, 0, 0, false, false
	d.buf = d.buf[:0]
	for {
		var err error
		if block, err = d.NextBlock(block, max); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func BenchmarkDecodeNDJSON(b *testing.B) { benchDecode(b, ContentTypeNDJSON) }
func BenchmarkDecodeBinary(b *testing.B) { benchDecode(b, ContentTypeBinary) }

// BenchmarkEncodeNDJSON bounds the client-side cost of the text format
// (not gated; the server never encodes samples).
func BenchmarkEncodeNDJSON(b *testing.B) {
	tr := benchTrace(b)
	buf := make([]byte, 0, 256*len(tr.Samples))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, s := range tr.Samples {
			buf = AppendSample(buf, s)
		}
	}
	samples := len(tr.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkDecodeBatch decodes a /v1/batch body of two 8 s traces (the
// shape of the repository benchmark's batch workload) by hand and, for
// comparison, with encoding/json plus ToTrace.
func BenchmarkDecodeBatch(b *testing.B) {
	tr := benchTrace(b)
	part := &trace.Trace{SampleRate: tr.SampleRate, Samples: tr.Samples[:800]}
	body, err := json.Marshal(BatchRequest{Traces: []BatchTrace{FromTrace(part), FromTrace(part)}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBatch(body, 256); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req BatchRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			for j := range req.Traces {
				req.Traces[j].ToTrace()
			}
		}
	})
}
