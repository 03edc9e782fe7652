#!/usr/bin/env bash
# Perf-regression wall: fails when the simulator's per-event allocation
# budget or the trace importer's per-record one regresses, and
# sanity-checks the sharded execution path. Allocation counts are
# deterministic (unlike ns/op, which depends on the machine), so CI can
# gate on them exactly:
#
#   - BenchmarkDispatch must stay at 0 allocs/op: the dispatch round has
#     been allocation-free since PR 2.
#   - BenchmarkPickFreshClock and BenchmarkPickBurst (internal/spec) must
#     stay at 0 allocs/op in every sub-benchmark: GS's and RAS's picks,
#     error and deadline bound, on running sets of 16 to 400 tasks, at a
#     new clock (a full pass) and in same-instant launch bursts with the
#     launches filed through Update between picks (retries the pick memo
#     serves). A pick runs on every launch attempt and works in the
#     ViewSet's reusable scratch, so any allocation there is a per-attempt
#     regression.
#   - BenchmarkSimulatorQuick's allocs/event must stay below the latest
#     BENCH_sim.json figures plus ~6% headroom. Every phase, whatever its
#     size, keeps its candidate views in a maintained spec.ViewSet, and an
#     admission reuses the pooled job state (task block and ViewSet
#     arrays) that best fits the job, and each task's copy list is a
#     window of one per-block array, and a calendar-queue resize rehashes
#     into the bucket storage it already holds, and only GRASS's sample
#     jobs record a completion curve. Straggler draws are keyed, so every
#     policy runs the same stragglers, and the workload measures gs
#     0.1699, ras 0.1705, late 0.1791, grass 0.2779, grass-sketch 0.3753
#     and oracle 0.1781. The walls are the figures of the last re-set
#     (gs 0.1674, ras 0.1680, late 0.1792, grass 0.2758, grass-sketch
#     0.3730 and oracle 0.1783, once the event queue sized its buckets
#     from its front) plus ~6%; the engine has since stopped growing a
#     batch slice, as it pops one event per step, and the sleeping-job
#     heaps and the decline certificates' scratch grow a few times per
#     simulation. Launches no longer grow copy lists; what is left is the
#     event queue, the pooled job state and GRASS's learner.
#     Every run admits through RunSource (Run replays its slice through
#     it), so these walls cover the streaming admission path too. The
#     headroom lets normal jitter pass while an accidental revert of the
#     allocation-free dispatch, the event and copy pooling, the bucket
#     reuse, the incremental views, the job-state recycling or the
#     struct-of-arrays task block and its copy-list windows fails CI.
#     These same ceilings are the
#     "per-event ceiling at P=1" gate for the sharded engine: one
#     partition IS the plain engine, so the walls hold for sharded P=1 by
#     construction. Tighten the thresholds when BENCH_sim.json advances.
#   - BenchmarkSimulatorQuick's touches/attempt must stay at the latest
#     BENCH_sim.json figures: gs 1.411, ras 1.157, late 1.121, grass 1.231,
#     grass-sketch 1.203 and oracle 0.8621. Touches are records re-derived
#     — a deterministic count, like allocations — and a launch attempt
#     re-derives only the records an event dirtied (views are evaluated on
#     read), so each ceiling sits within 0.01 of its figure. A return to
#     re-deriving every running task's view per attempt (~27-35
#     touches/attempt) fails.
#   - BenchmarkSimulatorQuick's passes/attempt must stay at the latest
#     BENCH_sim.json figures: gs 0.5231, ras 0.5214, grass 0.5248,
#     grass-sketch 0.5210 and oracle 0.7468. A pass is a GS or RAS pick
#     that was not a memo's retry; the other attempts were same-instant
#     retries the pick memo served or offers to sleeping jobs a decline
#     certificate answered (skips/attempt: gs 0.1300, ras 0.1879, grass
#     0.1630, grass-sketch 0.1715; the oracle's ground-truth views are
#     never certified). Like touches the count is deterministic,
#     so each ceiling sits within 0.01 of its figure: a memo that stops
#     engaging reads 1.0, and certificates that stop engaging read the
#     figures before them (gs 0.6560, ras 0.7103, grass 0.6890,
#     grass-sketch 0.6934). LATE makes no GS or RAS pick and has no wall.
#   - BenchmarkSimulatorQuick's scanned/pass must stay at the latest
#     BENCH_sim.json figures: gs 0.1638, ras 0.1278, grass 0.1588 and
#     grass-sketch 0.1634. It is the share of the running records the full
#     deadline passes read: a record a pass finds no candidate leaves the
#     scan under its own certificate (spec.ViewSet's hot set) until its
#     wake, a median below its floor or a re-filing brings it back. Like
#     passes the count is deterministic, so each ceiling sits within 0.01
#     of its figure; a hot set that stops shrinking reads 1.0, as the
#     oracle's ground-truth views do (they are never certified, no wall).
#   - BenchmarkSimulatorQuick's errscanned/pass must stay at the latest
#     BENCH_sim.json figures: gs 0.1511, ras 0.1588, grass 0.1548 and
#     grass-sketch 0.1562. It is the same share for the full error-bound
#     passes, counting the records a failed boundary check returned: a
#     record a pass finds far inside the earliest set (and no candidate)
#     or far outside it leaves the later passes as a quiet member or
#     non-member, and one comparison against each selection's boundary
#     proves it still on its side. Each ceiling sits within 0.01 of its
#     figure; error-bound passes that read every running record read 1.0,
#     as the oracle's do (no wall).
#   - BenchmarkScanSWIM and BenchmarkSourceSWIM (internal/traceio) must
#     stay at or below 0.01 allocs/record over their 100K-record SWIM file:
#     a record decodes without allocating (its fields are parsed from the
#     line's bytes, and the job, its task array and its reduce-phase
#     backing are reused), so what is left is each pass's set-up: the
#     opener, the line buffer and Scan's blocks, ~25 allocations per
#     worker (both run at -cpu 2: Scan 0.0007, Source 0.0002 allocs/record).
#     Before the allocation-free decoder both read 1.69: a string
#     per line alone reads >= 1, and a per-job make >= 0.24, so either
#     coming back fails.
#   - BenchmarkScanGoogle (internal/traceio) must stay at or below 0.28
#     allocs/record over the vendored 10,931-record Google task_events
#     sample: a record decodes from the line's bytes without allocating,
#     so what is left is per job (its grouping state, ID string, task map
#     and work array, ~7 for each of the 400 jobs) and the gzip reader,
#     0.261 allocs/record. With a string per record it read 1.327.
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

# Nor may a GS or RAS pick, full pass or retry: each benchmark picks before
# timing, so the scratch is grown and allocs/op is an exact count.
spec_out=$(go test ./internal/spec -run '^$' \
	-bench 'BenchmarkPickFreshClock|BenchmarkPickBurst' -benchtime 200x -benchmem)
echo "$spec_out"
zero_allocs BenchmarkPickFreshClock "$spec_out"
zero_allocs BenchmarkPickBurst "$spec_out"

# wall <output> <benchmark> <metric> <wall>: <benchmark>'s <metric> in
# <output> must not exceed <wall>. The -N GOMAXPROCS suffix is absent on
# single-core runners; match the benchmark exactly either way (so "grass"
# never matches "grass-sketch").
wall() {
	local bout=$1 bench=$2 metric=$3 limit=$4 v
	v=$(echo "$bout" | awk -v re="^$bench(-[0-9]+)?\$" -v m="$metric" '
		$1 ~ re {
			for (i = 1; i <= NF; i++) if ($i == m) print $(i-1) }' | head -1)
	if [ -z "$v" ]; then
		echo "PERF WALL: no $metric metric for $bench" >&2
		fail=1
	elif awk -v v="$v" -v w="$limit" 'BEGIN { exit !(v > w) }'; then
		echo "PERF WALL: $bench at $v $metric exceeds the wall of $limit" >&2
		fail=1
	else
		echo "perf wall: $bench $v $metric <= $limit ok"
	fi
}

# Full-simulation allocations per event, touches and full pick passes per
# launch attempt and the shares of running records deadline and error-bound
# passes read, gated per policy.
check() { wall "$out" "BenchmarkSimulatorQuick/$1" "$2" "$3"; }
check gs allocs/event 0.178
check ras allocs/event 0.178
check late allocs/event 0.190
# The GRASS learning policy under both learner stores. Record/Aggregate
# ride job lifecycle events, not the per-event hot path; the mergeable
# sketch learner's extra ~0.1 allocs/event is the price of
# partition-invariant learning.
check grass allocs/event 0.292
check grass-sketch allocs/event 0.395
# The oracle runs GRASS's strawman on ground-truth views.
check oracle allocs/event 0.189
check gs touches/attempt 1.42
check ras touches/attempt 1.16
check late touches/attempt 1.13
check grass touches/attempt 1.24
check grass-sketch touches/attempt 1.21
check oracle touches/attempt 0.87
check gs passes/attempt 0.533
check ras passes/attempt 0.531
check grass passes/attempt 0.534
check grass-sketch passes/attempt 0.531
check oracle passes/attempt 0.755
check gs scanned/pass 0.174
check ras scanned/pass 0.138
check grass scanned/pass 0.169
check grass-sketch scanned/pass 0.174
check gs errscanned/pass 0.162
check ras errscanned/pass 0.169
check grass errscanned/pass 0.165
check grass-sketch errscanned/pass 0.167

# Trace import: a SWIM record decodes without allocating, in Scan's
# block-parallel pass and in a Source's stream, and so does a Google
# task_events record in Scan's one-core grouping pass. Scan's set-up
# allocates per worker, so -cpu 2 keeps the wall a per-record gate on
# runners of any size.
io_out=$(go test ./internal/traceio -run '^$' \
	-bench 'BenchmarkScanSWIM|BenchmarkSourceSWIM|BenchmarkScanGoogle' -benchtime 3x -benchmem -cpu 2)
echo "$io_out"
wall "$io_out" BenchmarkScanSWIM allocs/record 0.01
wall "$io_out" BenchmarkSourceSWIM allocs/record 0.01
wall "$io_out" BenchmarkScanGoogle allocs/record 0.28

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
