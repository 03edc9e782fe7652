#!/usr/bin/env bash
# Fault-injection smoke: replay synthetic traces under the named fault
# scenarios through the sharded streaming pipeline and require the output
# to match the checked-in goldens BYTE-IDENTICALLY. The fault schedule is
# drawn from its own seed stream and partitioned with the cluster, so the
# same flags produce the same crashes, storms and interference bursts — in
# the same order, with the same respeculation — on every platform. The
# goldens therefore gate the whole fault path end to end: scenario preset
# resolution, the per-partition schedule split, crash/restart slot
# accounting, kill-and-respeculate, slowdown storms, interference seizure
# and the merged fault counters in the rendered summary. Only genuinely
# machine-dependent lines (wall clock, heap high-water, shard balance) are
# stripped before comparing.
#
# Regenerate after an intentional model change with:
#
#   scripts/fault_smoke.sh --update
#
# and commit the new goldens with the change that moved them.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=internal/fault/testdata/golden

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  mkdir -p "$GOLDEN"
fi

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/grass-bench

# canon strips the machine-dependent lines from a replay's output: the
# wall-clock suffix on the header, the shard-balance line (timing-derived)
# and the heap high-water line. Everything else is simulation output and
# must be byte-identical everywhere.
canon() {
  sed -E 's/ \[[0-9a-z.]+s?\]$//' \
    | grep -v '^sharded execution' \
    | grep -v '^memory high-water'
}

check() { # check <name> <golden-file> ... produces stdin
  local name=$1 golden=$2
  local got
  got=$(cat)
  if [ "$update" = 1 ]; then
    printf '%s\n' "$got" > "$golden"
    echo "updated $golden"
    return 0
  fi
  if ! printf '%s\n' "$got" | diff -u "$golden" - ; then
    echo "FAIL: $name output diverged from $golden" >&2
    echo "      (scripts/fault_smoke.sh --update regenerates after an intentional change)" >&2
    return 1
  fi
  echo "OK: $name matches $golden"
}

# The scale gate: 100K mixed jobs under machine crash/restart, partitioned
# 4 ways. Crashes kill running copies mid-flight and force respeculation,
# so this exercises the Lost accounting and the restart slot bookkeeping at
# trace scale, across the partition split and the deterministic merge.
"$bin/grass-bench" -jobs 100000 -scenario crashy -partitions 4 -policy gs \
  | canon | check "crashy sharded replay" "$GOLDEN/crashy_replay_100k.txt"

# Preset coverage: every other named scenario at a size CI can afford.
for sc in rack-storm contended overload-mixed; do
  "$bin/grass-bench" -jobs 1000 -scenario "$sc" -partitions 2 -policy gs \
    | canon | check "$sc replay" "$GOLDEN/${sc}_replay_1k.txt"
done

# -fault-seed must move the fault timeline without touching anything else:
# the same rack-storm replay under a pinned fault seed has to diverge from
# the default-derived schedule (if it doesn't, the flag is dead).
reseeded=$("$bin/grass-bench" -jobs 1000 -scenario rack-storm -partitions 2 -policy gs -fault-seed 42 | canon)
if printf '%s\n' "$reseeded" | diff -q "$GOLDEN/rack-storm_replay_1k.txt" - >/dev/null 2>&1; then
  echo "FAIL: -fault-seed 42 produced the default fault timeline" >&2
  exit 1
fi
echo "OK: -fault-seed moves the fault timeline"

# "-scenario none" and no flag at all are the same benign cluster, and a
# benign replay must render no fault-scenario line.
plain=$("$bin/grass-bench" -jobs 1000 -partitions 2 -policy gs | canon)
none=$("$bin/grass-bench" -jobs 1000 -partitions 2 -policy gs -scenario none | canon)
if [ "$plain" != "$none" ]; then
  echo "FAIL: -scenario none diverged from the benign default" >&2
  exit 1
fi
if printf '%s\n' "$plain" | grep -q '^fault scenario'; then
  echo "FAIL: benign replay rendered a fault-scenario line" >&2
  exit 1
fi
echo "OK: -scenario none is the benign default"

# Flag-validation contract: bad fault flags must fail loudly.
if "$bin/grass-bench" -jobs 100 -scenario no-such-scenario >/dev/null 2>&1; then
  echo "FAIL: unknown -scenario should have failed" >&2
  exit 1
fi
if "$bin/grass-bench" -scenario crashy >/dev/null 2>&1; then
  echo "FAIL: -scenario without a replay should have failed" >&2
  exit 1
fi
if "$bin/grass-bench" -fault-seed 7 >/dev/null 2>&1; then
  echo "FAIL: -fault-seed without a replay should have failed" >&2
  exit 1
fi
echo "OK: flag validation rejects bad inputs"

echo "fault smoke: all checks passed"
