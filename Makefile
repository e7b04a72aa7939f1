# Development targets. `make check` is the pre-commit gate; it matches
# what the tier-1 verification runs plus formatting, vet and the race
# detector. `make bench-guard` re-checks the performance contracts.
# Time is gated by one rule: each gated benchmark runs as interleaved
# pairs of the merge base (BASE) and the working tree
# (scripts/benchpair.sh), and cmd/benchjson fails a benchmark the
# working tree made slower by more than the base's own noise (see its
# package doc and docs/PERF.md). Allocations, bytes and capacity are
# deterministic or catch collapse, so they keep absolute ceilings: the
# nil-hook pipeline must stay strictly below the uninstrumented seed's
# 2664 allocs/op (current ceilings live in internal/core/observe_test.go),
# and the streaming front end, wire decode, hub and conditioner hold
# their allocs-per-sample ceilings. `make bench-mem` (also run by
# bench-guard) enforces the memory budget: bytes per idle session, the
# sessions-per-GB floor, and the warm tracker's retained-capacity
# ceiling (snapshot in BENCH_mem.json). `make bench-json` refreshes the
# committed BENCH_stream.json snapshot without a base.
# `make bench-batch` compares serial vs pooled batch processing.

GO ?= go

# The commit the paired timing gate compares the working tree against.
# On main the merge base is HEAD, so uncommitted work is compared with
# the last commit. CI passes the pull request's base or the commit a
# push replaced. A base that cannot be checked out fails the gate.
BASE ?= $(shell git merge-base HEAD main)
PAIRED = GO='$(GO)' scripts/benchpair.sh '$(BASE)'

# Allocation ceilings. Allocations are deterministic, so these are
# exact contracts, not noise allowances: the streaming front end
# allocates on the event path only, flat with duration (125 per trace at
# 60/120/240 s ≈ 0.02/sample at 60 s); wire decode and the streaming
# conditioner are alloc-free at steady state (pinned exactly by
# TestDecodeAllocFree and TestStreamSteadyStateAllocFree); the hub's
# per-sample allocations stay bounded with tracing on.
STREAM_MAX_ALLOCS_PER_SAMPLE ?= 0.05
CONDITION_MAX_ALLOCS_PER_SAMPLE ?= 0.01
WIRE_MAX_ALLOCS_PER_SAMPLE ?= 0.01
TRACE_MAX_ALLOCS_PER_SAMPLE ?= 0.75

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

# Durable-session-state byte ceiling (BenchmarkSnapshot, snapshot in
# BENCH_state.json): a warm 60 s walking session snapshots into ~58 KB.
# The ceiling is the hard "compact blob" contract (a session must never
# approach raw-trace size, which would be ~500 KB/min).
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
# under its tighter one. Every timed benchmark then runs paired against
# BASE: the batch pipeline, the streaming front end at 60/120/240 s (a
# per-length ratio catches a cost that grows with the stream), wire
# decode, the hub with tracing off and head-sampled, and session
# snapshot/restore. Iteration counts are fixed, so both sides do the
# same work, and short, so a run often falls between bursts of load
# from other tenants.
bench-guard:
	$(GO) test ./internal/core -run 'TestProcessNilHooksAllocGuard|TestHooksAllocFree|TestPipelineReuseAllocGuard' -count=1 -v
	$(PAIRED) internal/core 'BenchmarkProcess$$' 10x
	$(GO) test ./internal/stream -run 'TestScanPathAllocFree' -count=1 -v
	$(PAIRED) . 'BenchmarkOnlineTracker' 20x -out BENCH_stream.json \
		-max allocs/sample=$(STREAM_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/wire -run 'TestDecodeAllocFree' -count=1 -v
	$(PAIRED) internal/wire 'BenchmarkDecode(NDJSON|Binary)$$' 50x \
		-max allocs/sample=$(WIRE_MAX_ALLOCS_PER_SAMPLE)
	$(GO) test ./internal/obs/tracing -run 'TestNilTracerAllocFree' -count=1 -v
	$(PAIRED) internal/engine 'BenchmarkHubPush$$' 20x -out BENCH_trace.json \
		-max allocs/sample=$(TRACE_MAX_ALLOCS_PER_SAMPLE)
	$(PAIRED) internal/stream 'BenchmarkSnapshot|BenchmarkRestore' 1000x -out BENCH_state.json \
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

# The conditioners, paired against BASE like bench-guard: the streaming
# conditioner's steady-state Push path may not allocate, and the batch
# conditioner (a 120 s severity-1 trace) is timed with no alloc ceiling.
bench-condition:
	$(GO) test ./internal/condition -run 'TestStreamSteadyStateAllocFree' -count=1 -v
	$(PAIRED) internal/condition 'BenchmarkStreamerPush' 100x \
		-max allocs/sample=$(CONDITION_MAX_ALLOCS_PER_SAMPLE)
	$(PAIRED) internal/condition 'BenchmarkCondition$$' 50x

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
