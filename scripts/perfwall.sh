#!/usr/bin/env bash
# Perf-regression wall: fails when the simulator's per-event allocation
# budget regresses, and sanity-checks the sharded execution path.
# Allocation counts are deterministic (unlike ns/op, which depends on the
# machine), so CI can gate on them exactly:
#
#   - BenchmarkDispatch must stay at 0 allocs/op: the dispatch round has
#     been allocation-free since PR 2.
#   - BenchmarkEarliestCandidates (internal/spec) must stay at 0 allocs/op:
#     GS's and RAS's error-bound selection runs on every launch attempt of
#     an error-bound job and works in the ViewSet's reusable scratch, so
#     any allocation there is a per-attempt regression.
#   - BenchmarkSimulatorQuick's allocs/event must stay below the latest
#     BENCH_sim.json figures plus ~6% headroom. Every phase, whatever its
#     size, keeps its candidate views in a maintained spec.ViewSet, and an
#     admission reuses the pooled job state (task block and ViewSet
#     arrays) that best fits the job, and a calendar-queue resize rehashes
#     into the bucket storage it already holds, and only GRASS's sample
#     jobs record a completion curve. Straggler draws are keyed, so every
#     policy runs the same stragglers, and the workload measures gs
#     0.7656, ras 0.5180, late 0.5224, grass 0.7044, grass-sketch 0.7812
#     and oracle 0.6375. No keyed draw allocates: a -memprofile puts the
#     allocations in launch's copy lists, the event queue and the pooled
#     job state, the sites they had before the draws were keyed.
#     Every run admits through RunSource (Run replays its slice through
#     it), so these walls cover the streaming admission path too. The
#     headroom lets normal jitter pass while an accidental revert of the
#     allocation-free dispatch, the event and copy pooling, the bucket
#     reuse, the incremental views, the job-state recycling or the
#     struct-of-arrays task block fails CI. These same ceilings are the
#     "per-event ceiling at P=1" gate for the sharded engine: one
#     partition IS the plain engine, so the walls hold for sharded P=1 by
#     construction. Tighten the thresholds when BENCH_sim.json advances.
#   - BenchmarkSimulatorQuick's touches/attempt must stay at the latest
#     BENCH_sim.json figures: gs 1.411, ras 1.157, late 1.121, grass 1.231,
#     grass-sketch 1.203 and oracle 0.8621. Touches are records re-derived
#     — a deterministic count, like allocations — and a launch attempt
#     re-derives only the records an event dirtied (views are evaluated on
#     read), so each ceiling sits within 0.01 of its figure. A return to re-deriving every running
#     task's view per attempt (~27-35 touches/attempt) fails.
#   - BenchmarkShardedReplay's "balance" metric (Σ partition walls / max
#     partition wall at 4 partitions) must stay ≥ 2.5: it is the
#     machine-independent ceiling on what 4 partitions can gain, so a
#     partitioner change that skews load (and silently caps -partitions
#     speedup below the acceptance floor) fails here even on a single-core
#     runner. Unlike the alloc gates this one is timing-derived, so the
#     wall takes the BEST balance across the three workers= variants
#     (identical model and work per variant — a transient runner stall
#     would have to hit all three independent runs to fake a skew);
#     round-robin partitioning keeps every sample at ~3.6-4.0.
#
# These exact walls double as the zero-cost gate for fault injection
# (PR 10): every benchmark here runs with faults disabled, where the
# simulator builds no injector and the hot path pays only nil checks —
# so a change that lets the fault machinery allocate or reorder events
# on a benign cluster fails the same exact ceilings. The priced fault
# path itself is tracked by BenchmarkSimulatorFaults in BENCH_sim.json.
#
# Usage: scripts/perfwall.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Record the environment alongside the numbers: ns/op comparisons are only
# meaningful within one machine, and the alloc gates assume the recorded
# GOMAXPROCS (benchmark names carry a -N suffix once it exceeds 1).
echo "perf wall env: $(go env GOVERSION) GOMAXPROCS=${GOMAXPROCS:-$(nproc)} NumCPU=$(nproc)"

out=$(go test ./internal/sched -run '^$' \
	-bench 'BenchmarkSimulatorQuick|BenchmarkDispatch' \
	-benchtime 20x -benchmem)
echo "$out"
fail=0

# zero_allocs <benchmark> <output>: every sub-benchmark of <benchmark> in
# <output> must report 0 allocs/op. An empty parse (renamed or
# restructured benchmark) fails too: a wall that checks nothing is no wall.
zero_allocs() {
	local bench=$1 bout=$2 name allocs n=0
	while read -r name allocs; do
		n=$((n + 1))
		if [ "$allocs" != "0" ]; then
			echo "PERF WALL: $name allocated $allocs allocs/op, want 0" >&2
			fail=1
		fi
	done < <(echo "$bout" | awk -v re="^$bench/" '$1 ~ re {
		for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $1, $(i-1) }')
	if [ "$n" -eq 0 ]; then
		echo "PERF WALL: no $bench allocs/op lines parsed" >&2
		fail=1
	else
		echo "perf wall: $n $bench benches at 0 allocs/op ok"
	fi
}

# Dispatch rounds must not allocate at all.
zero_allocs BenchmarkDispatch "$out"

# Nor may the error-bound earliest-set selection: the benchmark makes one
# warm-up call before timing, so the scratch is grown and allocs/op is an
# exact count.
spec_out=$(go test ./internal/spec -run '^$' \
	-bench 'BenchmarkEarliestCandidates' -benchtime 200x -benchmem)
echo "$spec_out"
zero_allocs BenchmarkEarliestCandidates "$spec_out"

# Full-simulation allocations per event and touches per launch attempt,
# gated per policy.
check() { # check <sub-benchmark> <metric> <wall>
	local sub=$1 metric=$2 wall=$3 v
	# The -N GOMAXPROCS suffix is absent on single-core runners; match the
	# sub-benchmark exactly either way (so "grass" never matches
	# "grass-sketch").
	v=$(echo "$out" | awk -v re="^BenchmarkSimulatorQuick/$sub(-[0-9]+)?\$" -v m="$metric" '
		$1 ~ re {
			for (i = 1; i <= NF; i++) if ($i == m) print $(i-1) }' | head -1)
	if [ -z "$v" ]; then
		echo "PERF WALL: no $metric metric for $sub" >&2
		fail=1
	elif awk -v v="$v" -v w="$wall" 'BEGIN { exit !(v > w) }'; then
		echo "PERF WALL: $sub at $v $metric exceeds the wall of $wall" >&2
		fail=1
	else
		echo "perf wall: $sub $v $metric <= $wall ok"
	fi
}
check gs allocs/event 0.81
check ras allocs/event 0.55
check late allocs/event 0.55
# The GRASS learning policy under both learner stores. Record/Aggregate
# ride job lifecycle events, not the per-event hot path; the mergeable
# sketch learner's extra ~0.07 allocs/event is the price of
# partition-invariant learning.
check grass allocs/event 0.75
check grass-sketch allocs/event 0.83
# The oracle runs GRASS's strawman on ground-truth views.
check oracle allocs/event 0.68
check gs touches/attempt 1.42
check ras touches/attempt 1.16
check late touches/attempt 1.13
check grass touches/attempt 1.24
check grass-sketch touches/attempt 1.21
check oracle touches/attempt 0.87

# Sharded execution: partition balance at 4 partitions. All three
# workers= variants compute the identical model, so their balance samples
# are three independent measurements of the same structural quantity —
# gate on the best one so a single stalled run cannot fail the wall.
sharded=$(go test ./internal/sched -run '^$' \
	-bench 'BenchmarkShardedReplay' -benchtime 1x)
echo "$sharded"
bal=$(echo "$sharded" | awk '/^BenchmarkShardedReplay\// {
	for (i = 1; i <= NF; i++) if ($i == "balance") print $(i-1) }' |
	sort -g | tail -1)
if [ -z "$bal" ]; then
	echo "PERF WALL: no balance metric from BenchmarkShardedReplay" >&2
	fail=1
elif awk -v v="$bal" 'BEGIN { exit !(v < 2.5) }'; then
	echo "PERF WALL: best shard balance $bal below 2.5 at 4 partitions — partitioning is skewed" >&2
	fail=1
else
	echo "perf wall: best shard balance $bal >= 2.5 ok"
fi

exit $fail
