#!/usr/bin/env bash
# Crash-safe request replay of `ipdb serve` (DESIGN.md §10): SIGKILL the
# daemon while a journaled request is mid-compute, restart it on the same
# journal, and require
#   1. the restart to repair the (possibly torn) journal and replay the
#      accepted-but-unanswered request to completion,
#   2. the replayed verdict to be byte-identical to an uninterrupted
#      daemon's answer for the same request, and
#   3. a second restart to find nothing pending (the replay closed the
#      request under its original journal id).
#
# If the victim daemon answers before the SIGKILL lands, nothing was
# interrupted and the test reports an explicit SKIP instead of passing
# vacuously.
#
# Usage: serve_crash.sh /path/to/bin/main.exe

set -euo pipefail

IPDB=${1:?usage: serve_crash.sh IPDB_EXE}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ipdb-serve-crash.XXXXXX")
cleanup() {
  for f in "$TMP"/*.pid; do
    [ -f "$f" ] && kill -9 "$(cat "$f")" 2> /dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "serve_crash: $1" >&2
  exit 1
}

skip() {
  echo "serve_crash: SKIP ($1)" >&2
  exit 0
}

# Start a daemon on an ephemeral port; echoes the port and records the
# daemon's pid in "$out.pid" (command substitution runs this in a
# subshell, so shell variables would not survive).
start_daemon() {
  local out="$1"
  shift
  "$IPDB" serve --port 0 "$@" > "$out" 2>&1 &
  echo $! > "$out.pid"
  local i port
  for i in $(seq 1 200); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$out" 2> /dev/null || true)
    [ -n "$port" ] && { echo "$port"; return 0; }
    sleep 0.1
  done
  return 1
}

stats_field() {
  # stats_field PORT FIELD -> integer
  "$IPDB" request --port "$1" --retries 20 "stats" \
    | sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p"
}

# An unbudgeted request long enough to kill mid-compute but small enough
# to replay quickly. Completes with a certified verdict, so it is cached
# and must replay byte-identically.
REQ="criterion geometric upto=5000000"

# Seconds to wait before the SIGKILL: half the wall time the reference
# daemon needed for the same request, so the kill lands mid-flight
# however fast the machine is (GNU date's %N; 0.6 s where that is
# unavailable).
half_elapsed() {
  awk -v a="$1" -v b="$2" -v d="0.6" \
    'BEGIN { if (a ~ /^[0-9]+$/ && b ~ /^[0-9]+$/) printf "%.3f", (b - a) / 2e9; else print d }'
}

# 0. Reference answer from an uninterrupted daemon (no journal involved).
PORT_R=$(start_daemon "$TMP/ref.out") || skip "daemon did not start (no loopback TCP?)"
t0=$(date +%s%N)
REF=$("$IPDB" request --port "$PORT_R" --retries 20 "$REQ") \
  || fail "reference request failed: $REF"
t1=$(date +%s%N)
delay=$(half_elapsed "$t0" "$t1")
kill "$(cat "$TMP/ref.out.pid")" 2> /dev/null || true

# 1. Victim: journaled daemon, same request, SIGKILLed mid-compute.
PORT_V=$(start_daemon "$TMP/victim.out" --journal "$TMP/j.wal" --cache "$TMP/c.ckpt") \
  || fail "victim daemon did not start"
VICTIM=$(cat "$TMP/victim.out.pid")
"$IPDB" request --port "$PORT_V" --retries 20 "$REQ" > "$TMP/client.out" 2>&1 &
CLIENT=$!
sleep "$delay"
if ! kill -9 "$VICTIM" 2> /dev/null; then
  skip "victim exited before SIGKILL; crash path not exercised"
fi
if wait "$CLIENT" 2> /dev/null; then
  skip "request answered before SIGKILL landed"
fi

# The journal must hold the accepted request without a completion record.
grep -q "req 1 " "$TMP/j.wal" || skip "request was not journaled before the kill"
if grep -q "done 1 " "$TMP/j.wal"; then
  skip "request completed before the kill"
fi

# 2. Restart on the same journal: the pending request replays before the
#    daemon starts listening (the listening line is the replay barrier).
PORT_2=$(start_daemon "$TMP/restart.out" --journal "$TMP/j.wal" --cache "$TMP/c.ckpt") \
  || fail "restart failed (torn journal not repaired?)"
REPLAYED=$(stats_field "$PORT_2" replayed)
[ "$REPLAYED" = "1" ] || fail "replayed=$REPLAYED after restart, want 1"

# 3. The replayed verdict answers re-asks byte-identically to the
#    uninterrupted reference, straight from the re-seeded cache.
GOT=$("$IPDB" request --port "$PORT_2" "$REQ") || fail "re-ask failed: $GOT"
[ "$GOT" = "$REF" ] || fail "replayed response differs: $(printf '%q' "$GOT") vs $(printf '%q' "$REF")"
HITS=$(stats_field "$PORT_2" cache_hits)
[ "$HITS" -ge 1 ] || fail "re-ask did not hit the replayed cache entry"
grep -q "done 1 " "$TMP/j.wal" || fail "replay did not journal the completion under the original id"
# Drain the daemon fully before reopening its journal: two live appenders
# on one journal would interleave.
RESTART_PID=$(cat "$TMP/restart.out.pid")
kill "$RESTART_PID" 2> /dev/null || true
for i in $(seq 1 100); do
  kill -0 "$RESTART_PID" 2> /dev/null || break
  sleep 0.1
done

# 4. A second restart finds a clean journal: nothing pending, no replays.
PORT_3=$(start_daemon "$TMP/restart2.out" --journal "$TMP/j.wal" --cache "$TMP/c.ckpt") \
  || fail "second restart failed"
REPLAYED=$(stats_field "$PORT_3" replayed)
[ "$REPLAYED" = "0" ] || fail "second restart replayed $REPLAYED requests, want 0"

echo "serve_crash: OK" >&2
