#!/bin/sh
# benchpair.sh runs one package's benchmarks as interleaved pairs of a
# base commit and the working tree, and hands both sides to
# cmd/benchjson, which gates the candidate against the base.
#
# Usage (from the repository root):
#
#	scripts/benchpair.sh BASE PKG REGEX BENCHTIME [benchjson flags...]
#
#	scripts/benchpair.sh "$(git merge-base HEAD main)" . \
#	    'BenchmarkOnlineTracker' 20x -out BENCH_stream.json
#
# BASE is checked out with `git worktree` into a temporary directory,
# which is removed on exit, on failure too. Both sides are built with
# `go test -c -trimpath` (trimmed paths let the two trees share the
# build cache) and each binary runs from its own tree's package
# directory, since some benchmarks read testdata/. A base that cannot be
# resolved, checked out or built fails the step: a gate with nothing to
# compare against must not pass silently. A package absent from the
# base is the one exception: its benchmarks run on the candidate only,
# and benchjson passes them with a note.
#
# Every run uses -test.cpu 1, since the gated paths run on one
# goroutine per session. With two, the garbage collector's background
# worker runs on a core shared with other tenants, and the fastest-run
# ratio of two identical tracker binaries ranged 0.91–1.02 over 30
# pairs, against 0.99–1.01 with one.
set -eu

# PAIRS is N, the number of base/candidate pairs. benchjson represents
# each side by its fastest run, so a side needs one run that bursts of
# load from other tenants left alone, and a slower candidate must lose
# most pairs. On a 2-vCPU VM, with 20 pairs a deliberate 10% tracker
# slowdown failed its step in 10 of 10 runs and an unchanged tree passed
# every step in 10 of 10; with 10, identical binaries' fastest-run
# ratios reached 1.05 and an 11% slowdown's fell to 1.05. Twenty pairs
# of sub-second runs keep `make bench-guard` under twice the wall time
# of the fixed ceilings it replaced.
PAIRS=20

if [ $# -lt 4 ]; then
	echo "usage: $0 BASE PKG REGEX BENCHTIME [benchjson flags...]" >&2
	exit 2
fi
base=$1 pkg=$2 bench=$3 benchtime=$4
shift 4
GO=${GO:-go}
root=$(pwd)

rev=$(git rev-parse --verify --quiet "${base}^{commit}") || {
	echo "benchpair: cannot resolve base '$base'" >&2
	exit 1
}
tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' INT TERM HUP
git worktree add --quiet --detach "$tmp/base" "$rev"

"$GO" test -c -trimpath -o "$tmp/candidate.test" "./$pkg"
if [ -d "$tmp/base/$pkg" ]; then
	(cd "$tmp/base" && "$GO" test -c -trimpath -o "$tmp/base.test" "./$pkg")
fi

# runside SIDE appends one run of SIDE's binary to the output, under a
# `side:` line that tells benchjson which side the results belong to.
runside() {
	[ -x "$tmp/$1.test" ] || return 0
	if [ "$1" = base ]; then dir=$tmp/base/$pkg; else dir=$root/$pkg; fi
	echo "side: $1" >>"$tmp/out"
	(cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchtime "$benchtime" -test.benchmem -test.cpu 1 \
		-test.timeout 10m) >>"$tmp/out"
}

# Alternate which side goes first, so drift in the host's speed falls
# on both sides alike.
: >"$tmp/out"
i=0
while [ $i -lt $PAIRS ]; do
	if [ $((i % 2)) -eq 0 ]; then
		runside base
		runside candidate
	else
		runside candidate
		runside base
	fi
	i=$((i + 1))
done
"$GO" run ./cmd/benchjson "$@" <"$tmp/out"
