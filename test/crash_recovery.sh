#!/usr/bin/env bash
# Crash-recovery integration test (DESIGN.md §7): SIGKILL a journaled bench
# run mid-flight, resume it from the journal, and require the resumed
# final report to be byte-identical to an uninterrupted run's.
#
# The experiment list is restricted to deterministic experiments; the
# resumable-series experiment checkpoints its exact series state into the
# journal, so even a kill in the middle of a 3M-term summation resumes to
# the bit-identical enclosure. Wall-clock timing lines ("  -- name: 0.12s")
# are stripped before comparison; everything else must match exactly.
#
# The kill lands halfway through the reference run's wall time. If the
# victim still finishes before the SIGKILL lands, the run proved nothing
# about recovery: the test reports an explicit SKIP instead of passing
# vacuously.
#
# Usage: crash_recovery.sh /path/to/bench/main.exe

set -euo pipefail

BENCH=${1:?usage: crash_recovery.sh BENCH_EXE}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ipdb-crash.XXXXXX")
VICTIM_PID=""
cleanup() {
  [ -n "$VICTIM_PID" ] && kill -9 "$VICTIM_PID" 2> /dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

ONLY=figures,example-3.5,theorem-2.4,resumable-series

fail() {
  echo "crash_recovery: $1" >&2
  exit 1
}

skip() {
  echo "crash_recovery: SKIP ($1)" >&2
  exit 0
}

# Seconds to wait before the SIGKILL: half the wall time the
# uninterrupted reference run took, so the kill lands mid-flight however
# fast the machine is (GNU date's %N; 0.25 s where that is unavailable).
half_elapsed() {
  awk -v a="$1" -v b="$2" -v d="0.25" \
    'BEGIN { if (a ~ /^[0-9]+$/ && b ~ /^[0-9]+$/) printf "%.3f", (b - a) / 2e9; else print d }'
}

# 1. Reference: the same journaled run, uninterrupted.
t0=$(date +%s%N)
"$BENCH" --only "$ONLY" --journal "$TMP/ref.journal" \
  > "$TMP/ref.out" 2> /dev/null \
  || fail "reference run failed"
t1=$(date +%s%N)
delay=$(half_elapsed "$t0" "$t1")

# 2. Victim: identical run, SIGKILLed mid-flight. A kill can land inside a
#    journal append; recovery must shrug off the torn tail.
"$BENCH" --only "$ONLY" --journal "$TMP/victim.journal" \
  > "$TMP/victim.out" 2> /dev/null &
VICTIM_PID=$!
sleep "$delay"
if ! kill -9 "$VICTIM_PID" 2> /dev/null; then
  # The victim already exited: nothing was interrupted, so a "pass" here
  # would not exercise recovery at all.
  wait "$VICTIM_PID" 2> /dev/null || true
  VICTIM_PID=""
  skip "victim finished before SIGKILL; crash path not exercised"
fi
wait "$VICTIM_PID" 2> /dev/null || true
VICTIM_PID=""

# 3. Resume from the journal: completed experiments replay verbatim, the
#    interrupted one restarts from its last exact snapshot.
"$BENCH" --only "$ONLY" --journal "$TMP/victim.journal" --resume \
  > "$TMP/resumed.out" 2> /dev/null \
  || fail "resumed run failed"

# 4. The reports must agree bit-for-bit modulo timing lines.
sed 's/^  -- .*//' "$TMP/ref.out" > "$TMP/ref.norm"
sed 's/^  -- .*//' "$TMP/resumed.out" > "$TMP/resumed.norm"
if ! cmp -s "$TMP/ref.norm" "$TMP/resumed.norm"; then
  echo "crash_recovery: resumed report differs from the uninterrupted run" >&2
  diff "$TMP/ref.norm" "$TMP/resumed.norm" >&2 || true
  exit 1
fi

# 5. The journal's "done" records must cover the experiments exactly once,
#    in the canonical experiment order. The parallel driver journals
#    completions through an ordered fold, so the victim's records are a
#    canonical prefix and the resumed run appends exactly the rest.
awk '$1 == "ipdbj1" && $4 == "done" { print $5 }' "$TMP/victim.journal" > "$TMP/done.order"
printf 'figures\nexample-3.5\ntheorem-2.4\nresumable-series\n' > "$TMP/done.expect"
if ! cmp -s "$TMP/done.order" "$TMP/done.expect"; then
  echo "crash_recovery: journal done-records out of canonical order:" >&2
  cat "$TMP/done.order" >&2
  exit 1
fi

echo "crash_recovery: OK (resumed report identical to uninterrupted run)"
