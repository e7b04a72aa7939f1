# Development targets. `make check` is the pre-commit gate; it matches
# what the tier-1 verification runs plus formatting, vet and the race
# detector. `make bench-guard` re-checks the performance contracts: the
# nil-hook pipeline must stay strictly below the uninstrumented seed's
# 2664 allocs/op (current ceilings live in internal/core/observe_test.go),
# and the incremental streaming front end must hold its ns-per-sample and
# allocs-per-sample ceilings with flat scaling from 60 s to 240 s traces
# (enforced by cmd/benchjson; see docs/PERF.md for the cost model).
# `make bench-json` refreshes the committed BENCH_stream.json snapshot.
# `make bench-mem` (also run by bench-guard) enforces the memory budget:
# bytes per idle session, the sessions-per-GB floor, and the warm
# tracker's retained-capacity ceiling (snapshot in BENCH_mem.json).
# `make bench-batch` compares serial vs pooled batch processing.

GO ?= go

# Streaming front-end ceilings (see ISSUE acceptance criteria and
# docs/PERF.md): the seed's whole-buffer tracker ran at ~3320 ns/sample
# and the first incremental front end at ~567; the block path
# (PushBlock + fused kernels + run-skipping extrema scan) measures
# ~295-310 ns/sample on a quiet host but run-to-run timer noise on
# shared hosts was observed up to ~405, so the ceiling is 430 — noisy
# measurement +~15%, and still a hard ratchet from the pre-block 664.
# Allocations are event-path only and exactly flat with duration
# (125 per trace at 60/120/240 s ≈ 0.02/sample at 60 s); the ns/sample
# flatness gate is padded to 30% for the same shared-host noise (the
# real flatness contract — allocs — is exact via the alloc ceiling).
STREAM_MAX_NS_PER_SAMPLE ?= 430
STREAM_MAX_ALLOCS_PER_SAMPLE ?= 0.05
STREAM_FLAT_WITHIN ?= 0.30

# Trace-conditioner ceilings: the streaming conditioner measured
# ~68 ns/sample on the reference host, and its steady state is
# alloc-free (pinned exactly by TestStreamSteadyStateAllocFree).
CONDITION_MAX_NS_PER_SAMPLE ?= 150
CONDITION_MAX_ALLOCS_PER_SAMPLE ?= 0.01

# Serving-layer wire-decode ceilings, timed through NextBlock in
# 64-sample blocks as the server decodes: NDJSON measured 459-887
# ns/sample over twenty runs on a 2-vCPU VM, quiet and busy (in-place
# scanner, plain decimals on the Eisel-Lemire fast path; ~1.9
# µs/sample with every number through strconv.ParseFloat), and its
# ceiling is 1.5x the worst of those runs; the binary framing ~40
# ns/sample. Both are alloc-free at steady state (pinned exactly by
# TestDecodeAllocFree).
WIRE_NDJSON_MAX_NS_PER_SAMPLE ?= 1330
WIRE_BINARY_MAX_NS_PER_SAMPLE ?= 120
WIRE_MAX_ALLOCS_PER_SAMPLE ?= 0.01

# Tracing-overhead ceilings (BenchmarkHubPush, snapshot in
# BENCH_trace.json): the full hub pipeline — queue hop + streaming DSP —
# measured ~543 ns/sample with no tracer attached and ~585 with
# head-sampling at 1.0 (paired medians), i.e. the per-block span path
# costs ~8% on a sampled request and nothing measurable otherwise. The nil-tracer
# "tracing off is free" contract is pinned exactly (0 allocs) by
# TestNilTracerAllocFree; the ns/sample drift gate against the committed
# snapshot is padded far above the 1% design goal because run-to-run
# timer noise on shared hosts was observed at ±20% — the absolute
# ceilings are the hard gate, the drift gate only catches gross
# regressions.
TRACE_OFF_MAX_NS_PER_SAMPLE ?= 1125
TRACE_SAMPLED_MAX_NS_PER_SAMPLE ?= 1250
TRACE_MAX_ALLOCS_PER_SAMPLE ?= 0.75
TRACE_REGRESS_WITHIN ?= 0.30

# Memory-footprint budget for million-session scale (BENCH_mem.json):
# one idle hub session — bounded queue, goroutine stack, warm tracker —
# measured ~33 KB, i.e. ~33k idle sessions per GB of heap+stack; the
# ceilings leave ~50% headroom for allocator noise across Go versions.
# The warm tracker alone retains ~203 KB of arena and scratch capacity
# after long streams (flat with duration — compaction bounds the
# window); its ceiling is the "no unbounded retention" contract.
MEM_MAX_BYTES_PER_IDLE_SESSION ?= 49152
MEM_MIN_SESSIONS_PER_GB ?= 20000
MEM_MAX_TRACKER_BYTES ?= 262144

# Serving-capacity floors (cmd/ptrack-loadgen, snapshot in
# BENCH_serve.json): a 2 s closed-loop sweep at 100 sessions measured
# ~200k samples/s goodput over NDJSON and ~500k over the binary framing
# on the reference host, with p99 ingest latency well under 100 ms. The
# floors and ceilings leave an order of magnitude of headroom for
# loaded shared hosts — they catch collapse (a deadlocked hub, an
# accidental per-request sleep), not drift; -require guards against a
# run whose cells all silently errored out.
SERVE_MIN_GOODPUT_SPS ?= 20000
SERVE_MAX_INGEST_P99_NS ?= 2000000000
SERVE_MAX_REJECT_RATE ?= 0.5

# Durable-session-state ceilings (BenchmarkSnapshot/BenchmarkRestore,
# snapshot in BENCH_state.json): a warm 60 s walking session snapshots
# in ~21 µs into ~58 KB — cheap enough to checkpoint every session of a
# full hub inside one checkpoint interval. The ns ceiling is padded
# ~10x for shared-host timer noise; the byte ceiling is the hard
# "compact blob" contract (a session must never approach raw-trace
# size, which would be ~500 KB/min).
STATE_MAX_SNAPSHOT_NS ?= 250000
STATE_MAX_BYTES_PER_SESSION ?= 131072

# Paper-accuracy pins (BENCH_accuracy.json): the headline numbers of
# Figs. 6-8 and the degrade sweep at the default eval.Options, reported
# by internal/eval's BenchmarkAccuracy. Every experiment is seeded, so
# each figure is pinned exactly at its printed precision (-min and -max
# at the same value, and -require so none can vanish): a refactor that
# moves any of them fails here and must explain the move, rather than
# slipping past the loose floors of the eval shape tests.
ACCURACY_PINS := \
	6a-mixed-acc=0.9759 \
	6a-stepping-acc=0.9868 \
	6a-walking-acc=0.9868 \
	6b-mixed-interference-pct=0.5682 \
	6b-mixed-stepping-pct=48.86 \
	6b-mixed-walking-pct=50.57 \
	6b-stepping-interference-pct=0 \
	6b-stepping-stepping-pct=100.0 \
	6b-stepping-walking-pct=0 \
	6b-walking-interference-pct=0 \
	6b-walking-stepping-pct=0 \
	6b-walking-walking-pct=100.0 \
	7a-eating-steps=0 \
	7a-gaming-steps=0 \
	7a-photo-steps=0 \
	7a-poker-steps=0 \
	7b-spoof-steps=0 \
	8a-ptrack-mean-m=0.03288 \
	8a-ptrack-median-m=0.02805 \
	8a-ptrack-p90-m=0.06800 \
	8b-auto-mean-m=0.02581 \
	8b-auto-median-m=0.02529 \
	8b-auto-p90-m=0.04511 \
	8b-manual-mean-m=0.02093 \
	8b-manual-median-m=0.01934 \
	8b-manual-p90-m=0.04305 \
	degrade-0-cond-err-pct=1.317 \
	degrade-0.25-cond-err-pct=6.936 \
	degrade-0.5-cond-err-pct=13.03 \
	degrade-0.75-cond-err-pct=17.16 \
	degrade-1-cond-err-pct=21.55

.PHONY: check fmt vet test race conformance cluster-e2e perfbench fuzz-wire loc loc-test bench-guard bench-condition bench-json bench-trace bench-state bench-mem bench bench-batch bench-serve smoke-loadgen bench-accuracy build

# race subsumes test (same suite under the race detector), so check runs
# the suite once, raced; conformance re-runs the SessionStore contract
# suite on its own so a store regression is named, not buried.
check: fmt vet race conformance cluster-e2e perfbench fuzz-wire bench-accuracy bench-guard bench-condition smoke-loadgen

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The SessionStore conformance suite, run against every backend under
# the race detector: mem + dir (internal/store) and the network-backed
# RemoteStore over live HTTP, with flaky-transport fault injection
# (internal/cluster). docs/SESSIONS.md documents the contract,
# docs/CLUSTER.md the remote backend.
conformance:
	$(GO) test ./internal/store ./internal/cluster -run 'TestConformance' -count=1 -race -v

# Multi-replica end-to-end: three live ptrack-serve instances, ring
# install, snapshot migration on ring change, and replica-kill failover
# — each asserting a monotonic, gap-accounted step ledger
# (docs/CLUSTER.md). Part of check.
cluster-e2e:
	$(GO) test ./internal/server -run 'TestClusterE2E' -count=1 -race -v

# The benchmark program is its own module (perfbench/go.mod, replacing
# ptrack with this checkout): vet and test it so a facade or hub change
# that breaks the benchmark fails here, before a benchmark run does.
# Part of check.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Differential fuzzing of the wire decoders, 10 s per target: FuzzNumber
# holds the JSON number fast path to strconv.ParseFloat bit for bit,
# and FuzzDecodeSamples / FuzzDecodeBatch round-trip whatever the
# sample and batch decoders accept. A mismatch is a correctness
# failure, so this runs in check and in the required CI job. Each new
# corpus entry is minimized for at most 100 runs: with the default 60 s
# limit, FuzzDecodeSamples ran no new input after its first 3 s while
# it minimized, 12k inputs in all against 167k with the bound.
FUZZ_WIRE = $(GO) test ./internal/wire -run NONE -fuzztime 10s -fuzzminimizetime 100x -fuzz
fuzz-wire:
	$(FUZZ_WIRE) '^FuzzNumber$$'
	$(FUZZ_WIRE) '^FuzzDecodeSamples$$'
	$(FUZZ_WIRE) '^FuzzDecodeBatch$$'

# Non-test Go LOC, the size metric ROADMAP tracks: every git-tracked
# .go file except tests and the perfbench module. Listing tracked files
# keeps out the module sources perfbench/run.sh unpacks in .bench_build/.
# Informational: no threshold.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/' | xargs cat | wc -l

# Test Go LOC, printed beside loc so code moved into tests (examples
# turned into Example functions, say) shows up as such: every
# git-tracked _test.go file outside perfbench. Informational.
loc-test:
	@git ls-files '*_test.go' | grep -v '^perfbench/' | xargs cat | wc -l

# The alloc-ceiling tests fail if the hot path regresses: the one-shot
# and hook-enabled paths must stay under the post-recycling ceiling
# (strictly below the 2664 allocs/op seed), and the reused-Pipeline path
# under its tighter one. The benchmark prints the current allocs/op and
# ns/op for all three variants side by side.
bench-guard:
	$(GO) test ./internal/core -run 'TestProcessNilHooksAllocGuard|TestHooksAllocFree|TestPipelineReuseAllocGuard' -count=1 -v
	$(GO) test ./internal/core -run NONE -bench 'BenchmarkProcess$$' -benchmem -benchtime 10x
	$(GO) test ./internal/stream -run 'TestScanPathAllocFree' -count=1 -v
	$(GO) test . -run NONE -bench 'BenchmarkOnlineTracker' -benchmem -benchtime 2s \
		| $(GO) run ./cmd/benchjson -out BENCH_stream.json \
		-max ns/sample=$(STREAM_MAX_NS_PER_SAMPLE) \
		-max allocs/sample=$(STREAM_MAX_ALLOCS_PER_SAMPLE) \
		-flat-within $(STREAM_FLAT_WITHIN)
	$(GO) test ./internal/wire -run 'TestDecodeAllocFree' -count=1 -v
	$(GO) test ./internal/wire -run NONE -bench 'BenchmarkDecodeNDJSON$$' -benchmem -benchtime 1s \
		| $(GO) run ./cmd/benchjson \
		-max ns/sample=$(WIRE_NDJSON_MAX_NS_PER_SAMPLE) \
		-max allocs/sample=$(WIRE_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/wire -run NONE -bench 'BenchmarkDecodeBinary$$' -benchmem -benchtime 1s \
		| $(GO) run ./cmd/benchjson \
		-max ns/sample=$(WIRE_BINARY_MAX_NS_PER_SAMPLE) \
		-max allocs/sample=$(WIRE_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/obs/tracing -run 'TestNilTracerAllocFree' -count=1 -v
	$(GO) test ./internal/engine -run NONE -bench 'BenchmarkHubPush/off$$' -benchmem -benchtime 1s \
		| $(GO) run ./cmd/benchjson \
		-max ns/sample=$(TRACE_OFF_MAX_NS_PER_SAMPLE) \
		-max allocs/sample=$(TRACE_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/engine -run NONE -bench 'BenchmarkHubPush$$' -benchmem -benchtime 1s \
		| $(GO) run ./cmd/benchjson -out BENCH_trace.json \
		-baseline BENCH_trace.json -regress-within $(TRACE_REGRESS_WITHIN) \
		-max ns/sample=$(TRACE_SAMPLED_MAX_NS_PER_SAMPLE) \
		-max allocs/sample=$(TRACE_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/stream -run NONE -bench 'BenchmarkSnapshot|BenchmarkRestore' -benchmem -benchtime 1000x \
		| $(GO) run ./cmd/benchjson -out BENCH_state.json \
		-max ns/op=$(STATE_MAX_SNAPSHOT_NS) \
		-max bytes/session=$(STATE_MAX_BYTES_PER_SESSION)
	$(MAKE) bench-mem
	$(MAKE) bench-serve

# The paper's accuracy, pinned: seeded and deterministic, so it is a
# correctness gate (part of check and of the required CI job), not a
# noise-bound performance ceiling.
bench-accuracy:
	$(GO) test ./internal/eval -run NONE -bench 'BenchmarkAccuracy$$' -benchtime 1x \
		| $(GO) run ./cmd/benchjson -out BENCH_accuracy.json \
		$(foreach p,$(ACCURACY_PINS),-require $(firstword $(subst =, ,$(p))) -min $(p) -max $(p))

# Memory-footprint budget: bytes per idle hub session and the derived
# sessions-per-GB capacity floor (BENCH_mem.json), plus the warm
# tracker's retained-capacity ceiling. Part of bench-guard.
bench-mem:
	$(GO) test ./internal/engine -run NONE -bench 'BenchmarkIdleSessionFootprint$$' -benchtime 1x \
		| $(GO) run ./cmd/benchjson -out BENCH_mem.json \
		-max bytes/idle-session=$(MEM_MAX_BYTES_PER_IDLE_SESSION) \
		-min sessions-per-GB=$(MEM_MIN_SESSIONS_PER_GB)
	$(GO) test . -run NONE -bench 'BenchmarkTrackerFootprint$$' -benchtime 2x \
		| $(GO) run ./cmd/benchjson \
		-max bytes/tracker=$(MEM_MAX_TRACKER_BYTES)

# Measured serving capacity (BENCH_serve.json): a real closed-loop
# loadgen sweep — 100 concurrent sessions, both wire framings — against
# an in-process server, gated on goodput and tail-latency floors (see
# docs/PERF.md for the methodology). Part of bench-guard.
bench-serve:
	$(GO) run ./cmd/ptrack-loadgen -self -mode closed -framing ndjson,binary \
		-sessions 100 -duration 2s \
		| $(GO) run ./cmd/benchjson -out BENCH_serve.json \
		-require goodput-sps -require ingest-p99-ns -require event-p99-ns \
		-min goodput-sps=$(SERVE_MIN_GOODPUT_SPS) \
		-max ingest-p99-ns=$(SERVE_MAX_INGEST_P99_NS) \
		-max reject-rate=$(SERVE_MAX_REJECT_RATE)

# One-second end-to-end loadgen smoke (also run by `go test
# ./cmd/ptrack-loadgen`): a live server, both framings, nonzero goodput
# and a well-formed report. Part of check.
smoke-loadgen:
	$(GO) test ./cmd/ptrack-loadgen -run 'TestLoadgenSmoke' -count=1 -v

# The ingestion conditioner must stay a small fraction of the tracker's
# per-sample budget: its ns/sample ceiling is ~25% of the streaming
# front end's, and its steady-state Push path may not allocate. The
# batch conditioner's ns/sample and B/sample (a 120 s severity-1 trace)
# are printed for information, with no ceiling.
bench-condition:
	$(GO) test ./internal/condition -run 'TestStreamSteadyStateAllocFree' -count=1 -v
	$(GO) test ./internal/condition -run NONE -bench 'BenchmarkStreamerPush' -benchmem -benchtime 1s \
		| $(GO) run ./cmd/benchjson \
		-max ns/sample=$(CONDITION_MAX_NS_PER_SAMPLE) \
		-max allocs/sample=$(CONDITION_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/condition -run NONE -bench 'BenchmarkCondition$$' -benchtime 1s

# Refresh the committed streaming benchmark snapshot without enforcing
# ceilings (bench-guard both refreshes and enforces).
bench-json:
	$(GO) test . -run NONE -bench 'BenchmarkOnlineTracker' -benchmem -benchtime 2s \
		| $(GO) run ./cmd/benchjson -out BENCH_stream.json

# Refresh the committed tracing-overhead snapshot without enforcing
# ceilings.
bench-trace:
	$(GO) test ./internal/engine -run NONE -bench 'BenchmarkHubPush' -benchmem -benchtime 1s \
		| $(GO) run ./cmd/benchjson -out BENCH_trace.json

# Refresh the committed session-state snapshot (checkpoint latency and
# bytes/session) without enforcing ceilings.
bench-state:
	$(GO) test ./internal/stream -run NONE -bench 'BenchmarkSnapshot|BenchmarkRestore' -benchmem -benchtime 1000x \
		| $(GO) run ./cmd/benchjson -out BENCH_state.json

# Serial vs pooled batch throughput on the 60 s reference trace ×16
# (speedup only shows on multicore hosts; workers=1 bounds overhead).
bench-batch:
	$(GO) test . -run NONE -bench 'BenchmarkBatchProcess$$' -benchmem -benchtime 5x

bench:
	$(GO) test -run NONE -bench . -benchmem ./...
