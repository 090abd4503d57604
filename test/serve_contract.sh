#!/usr/bin/env bash
# Golden wire contract of `ipdb serve` (DESIGN.md §10): response statuses
# mirror the CLI exit-code contract 0-4 byte for byte, overload sheds a
# structured E_BUSY, and malformed frames are rejected with E_PROTO —
# all over the real TCP protocol against real daemons.
#
# Usage: serve_contract.sh /path/to/bin/main.exe

set -euo pipefail

IPDB=${1:?usage: serve_contract.sh IPDB_EXE}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ipdb-serve-contract.XXXXXX")
cleanup() {
  for f in "$TMP"/*.pid; do
    [ -f "$f" ] && kill -9 "$(cat "$f")" 2> /dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "serve_contract: $1" >&2
  exit 1
}

skip() {
  echo "serve_contract: SKIP ($1)" >&2
  exit 0
}

# Start a daemon on an ephemeral port; echoes the port and records the
# daemon's pid in "$out.pid" (command substitution runs this in a
# subshell, so shell variables would not survive). Arguments are passed
# through to `ipdb serve`.
start_daemon() {
  local out="$1"
  shift
  "$IPDB" serve --port 0 "$@" > "$out" 2>&1 &
  echo $! > "$out.pid"
  local i port
  for i in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$out" 2> /dev/null || true)
    [ -n "$port" ] && { echo "$port"; return 0; }
    sleep 0.1
  done
  return 1
}

PORT=$(start_daemon "$TMP/a.out" --jobs 2) || skip "daemon did not start (no loopback TCP?)"

# One request per line: expected-exit-code, expected-response (exact), payload.
expect() {
  local want_exit="$1" want_resp="$2" payload="$3"
  local got_exit=0
  local got
  got=$("$IPDB" request --port "$PORT" --retries 20 "$payload") || got_exit=$?
  [ "$got_exit" = "$want_exit" ] \
    || fail "\"$payload\": exit $got_exit, want $want_exit (response: $got)"
  [ "$got" = "$want_resp" ] \
    || fail "\"$payload\": response $(printf '%q' "$got"), want $(printf '%q' "$want_resp")"
}

# status 0: certified-positive verdicts, version, pqe — and the version
# body must equal `ipdb version` (one version string, two transports)
expect 0 "0 $("$IPDB" version)" "version"
expect 0 "0 in FO(TI): bounded instance size <= 1 (Corollary 5.4)" "classify geometric"
expect 0 "0 P(∃x.(∃y.R(x,y))) = 2/3 ≈ 0.66666666" "pqe example-b3 exists x y. R(x,y)"

# status 1: certified-negative verdict, same bytes as the CLI golden
expect 1 "1 E(|D|^2) = ∞ (certified; partial sum 150 after 50 terms)" \
  "moments example-3.5 k=2 upto=50"

# status 2: usage errors
expect 2 "2 unknown family no-such-family; available: example-3.5, example-3.9, example-5.5, geometric, sensor-bounded, sqrt-growth" \
  "classify no-such-family"
expect 2 "2 unknown op \"frobnicate\" (version|stats|health|promote|repl|classify|moments|criterion|pqe|kb)" \
  "frobnicate geometric"

# status 3: budget exhaustion degrades to a sound partial verdict, with
# the same bytes — step count included — as the CLI's stdout for
# `criterion geometric --upto 100000000 --max-steps 5000`,
# `classify example-5.5 --upto 2000 --max-steps 100` and
# `moments example-3.5 -k 2 --upto 100000 --max-steps 10`
expect 3 "3 Σ|D|·P(D)^(1/|D|): partial: step budget exhausted (5000 steps, limit 5000) after 5000 of 100000000 terms (partial sum 1; certified enclosure so far [1, 1])" \
  "criterion geometric upto=100000000 max_steps=5000"
expect 3 "3 partial verdict: moment check at k=1: partial: step budget exhausted (100 steps, limit 100) after 100 of 2000 terms (partial sum 1.11773; certified enclosure so far [1.11773, 1.11773])" \
  "classify example-5.5 upto=2000 max_steps=100"
expect 3 "3 E(|D|^2): partial: step budget exhausted (10 steps, limit 10) after 10 of 55 terms (partial sum 30)" \
  "moments example-3.5 k=2 upto=100000 max_steps=10"

# health: a status-0 JSON liveness probe carrying the replication role,
# epoch, journal position, lag and queue/cache gauges (DESIGN.md §13)
HEALTH=$("$IPDB" request --port "$PORT" "health") || fail "health probe failed: $HEALTH"
case "$HEALTH" in
  "0 {"*) ;;
  *) fail "health is not a status-0 JSON object: $HEALTH" ;;
esac
for field in '"role": "leader"' '"epoch": 0' '"journal_pos": ' '"lag": 0' \
  '"pending": ' '"queue_depth": ' '"capacity": ' '"cache_size": '; do
  case "$HEALTH" in
    *"$field"*) ;;
    *) fail "health JSON lacks $field: $HEALTH" ;;
  esac
done

# a cache hit answers with the same bytes as the miss
A=$("$IPDB" request --port "$PORT" "criterion geometric upto=2000") || true
B=$("$IPDB" request --port "$PORT" "criterion geometric upto=2000") || true
[ "$A" = "$B" ] || fail "cache hit changed the response bytes: $A vs $B"

# E_PROTO: a malformed frame is rejected with a structured response
RAW=$("$IPDB" request --port "$PORT" --raw $'utter garbage\n')
case "$RAW" in
  ipdbs1\ *E_PROTO*) ;;
  *) fail "malformed frame: $RAW" ;;
esac
# ... and the daemon still serves afterwards
expect 0 "0 $("$IPDB" version)" "version"

# status 4: an injected worker fault surfaces as a typed internal error
PORT_F=$(start_daemon "$TMP/f.out" --jobs 1 --fault-rate 1 --fault-seed 7) \
  || fail "fault daemon did not start"
OUT=$("$IPDB" request --port "$PORT_F" --retries 20 "classify geometric") \
  && fail "injected fault exited 0" || [ $? = 4 ] || fail "injected fault: wrong exit code"
case "$OUT" in
  "4 E_FAULT"*) ;;
  *) fail "injected fault response: $OUT" ;;
esac

# E_BUSY: jobs=1 queue-limit=0 with a slow in-flight request sheds excess
# connections deterministically, with a structured response (exit 3)
PORT_B=$(start_daemon "$TMP/b.out" --jobs 1 --queue-limit 0 --slow-worker 3) \
  || fail "busy daemon did not start"
"$IPDB" request --port "$PORT_B" --retries 20 "version" > "$TMP/slow.out" 2>&1 &
SLOW=$!
sleep 0.5
OUT=$("$IPDB" request --port "$PORT_B" "version") \
  && fail "over-capacity request exited 0" || [ $? = 3 ] \
  || fail "over-capacity request: wrong exit code"
case "$OUT" in
  "E_BUSY "*) ;;
  *) fail "over-capacity response: $OUT" ;;
esac
wait "$SLOW" || fail "the in-flight request was lost during the shed"
grep -q "^0 " "$TMP/slow.out" || fail "slow request answered badly: $(cat "$TMP/slow.out")"

echo "serve_contract: OK" >&2
