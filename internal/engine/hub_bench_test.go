package engine

import (
	"context"
	"testing"

	"ptrack/internal/obs"
	"ptrack/internal/obs/tracing"
	"ptrack/internal/stream"
)

// benchHubPush streams a 60 s walking trace through one hub session and
// waits for the drain, so ns/sample covers the full asynchronous
// pipeline: queue hop, tracker DSP, and (when traced) the per-block
// span bookkeeping. The queue is sized past the trace so the pusher
// never spins on a full queue.
func benchHubPush(b *testing.B, hooks *obs.Hooks, sc tracing.SpanContext) {
	tr := walkingTrace(b, 60)
	cfg := HubConfig{
		Stream:    stream.Config{SampleRate: tr.SampleRate},
		QueueSize: len(tr.Samples) + 1,
		Hooks:     hooks,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := NewHub(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Push("bench", tr.Samples[0]); err != nil {
			b.Fatal(err)
		}
		if sc.IsValid() {
			h.SetSessionTrace("bench", sc)
		}
		for _, s := range tr.Samples[1:] {
			if err := h.Push("bench", s); err != nil {
				b.Fatal(err)
			}
		}
		h.End("bench")
		h.Close()
	}
	samples := len(tr.Samples)
	b.ReportMetric(float64(samples), "samples/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkHubPush is the tracing-overhead guard (see make bench-guard):
// "off" is the production default — no tracer attached — and must track
// the raw streaming front end (BENCH_stream.json) within the queue-hop
// allowance; "sampled" pays for span creation on every block and event.
// Both are timed against the merge base (BENCH_trace.json).
func BenchmarkHubPush(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchHubPush(b, nil, tracing.SpanContext{})
	})
	b.Run("sampled", func(b *testing.B) {
		ring := tracing.NewRing(0)
		tracer := tracing.New(tracing.Config{Service: "bench", SampleRate: 1, Exporter: ring})
		hooks := obs.NewHooks(obs.NewRegistry()).WithTracer(tracer)
		_, root := tracer.Start(context.Background(), "bench.root")
		defer root.End()
		benchHubPush(b, hooks, root.Context())
	})
}
