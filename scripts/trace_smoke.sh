#!/usr/bin/env bash
# Real-trace import smoke: decode the vendored SWIM and Google sample
# traces, replay them through the sharded streaming pipeline (4 partitions
# on 4 workers), and require the output to match the checked-in goldens
# BYTE-IDENTICALLY. The simulation is deterministic — same trace, same
# options, same partition count means the same events in the same order on
# every platform — so the goldens gate the whole import path end to end:
# file opening, gzip, record decoding, the record→job mapping rules, bound
# assignment, the sharded split and the merge. Only genuinely
# machine-dependent lines (wall clock, heap sizes, shard balance) are
# stripped before comparing.
#
# Regenerate after an intentional mapping/model change with:
#
#   scripts/trace_smoke.sh --update
#
# and commit the new goldens with the change that moved them.
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES=internal/traceio/testdata/samples
GOLDEN=internal/traceio/testdata/golden
SWIM=$SAMPLES/swim_fb_sample.tsv
GOOGLE=$SAMPLES/google_task_events_sample.csv.gz

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  mkdir -p "$GOLDEN"
fi

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/grass-trace ./cmd/grass-bench

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
    echo "      (scripts/trace_smoke.sh --update regenerates after an intentional change)" >&2
    return 1
  fi
  echo "OK: $name matches $golden"
}

# Validation must succeed and report the pinned job/task counts.
"$bin/grass-trace" validate -format swim -in "$SWIM" | check "swim validate" "$GOLDEN/swim_validate.txt"
"$bin/grass-trace" validate -format google -in "$GOOGLE" | check "google validate" "$GOLDEN/google_validate.txt"

# The Table-1-style import summaries are pure functions of file + options.
"$bin/grass-trace" stat -format swim -in "$SWIM" | check "swim stat" "$GOLDEN/swim_stat.txt"
"$bin/grass-trace" stat -format google -in "$GOOGLE" | check "google stat" "$GOLDEN/google_stat.txt"

# End-to-end sharded replays of both formats through the real simulator.
"$bin/grass-bench" -trace-file "$SWIM" -trace-format swim -partitions 4 -policy gs \
  | canon | check "swim sharded replay" "$GOLDEN/swim_replay.txt"
"$bin/grass-bench" -trace-file "$GOOGLE" -trace-format google -partitions 4 -policy gs \
  | canon | check "google sharded replay" "$GOLDEN/google_replay.txt"

# Converter round-trip: the JSON stream must decode and stay stable too.
"$bin/grass-trace" convert -format swim -in "$SWIM" 2>/dev/null | sha256sum | awk '{print $1}' \
  | check "swim convert digest" "$GOLDEN/swim_convert.sha256"

# Flag-validation contract: the new inputs must fail loudly, not silently.
for bad in \
  "validate -format swim" \
  "validate -in $SWIM" \
  "validate -format borg -in $SWIM" \
  "stat -format swim -in $SAMPLES/no-such-file.tsv"; do
  if "$bin/grass-trace" $bad >/dev/null 2>&1; then
    echo "FAIL: grass-trace $bad should have failed" >&2
    exit 1
  fi
done
if "$bin/grass-bench" -trace-file "$SAMPLES/no-such-file.tsv" >/dev/null 2>&1; then
  echo "FAIL: grass-bench -trace-file on a missing file should have failed" >&2
  exit 1
fi
if "$bin/grass-bench" -trace-file "$SWIM" -jobs 5 >/dev/null 2>&1; then
  echo "FAIL: grass-bench -trace-file with -jobs should have failed" >&2
  exit 1
fi
empty=$(mktemp --suffix=.tsv)
printf '# only a comment\n' > "$empty"
if "$bin/grass-bench" -trace-file "$empty" -trace-format swim >/dev/null 2>&1; then
  echo "FAIL: grass-bench -trace-file on an empty trace should have failed" >&2
  rm -f "$empty"
  exit 1
fi
rm -f "$empty"
echo "OK: flag validation rejects bad inputs"

echo "trace import smoke: all checks passed"
