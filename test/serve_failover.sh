#!/usr/bin/env bash
# Hot-standby failover drill for `ipdb serve` (DESIGN.md §13): a journaled
# leader streams its journal to a live follower, the leader is SIGKILLed
# while a request is mid-compute, the follower is promoted, and the drill
# requires
#   1. zero acked-write loss: every verdict the leader acknowledged before
#      the kill is answered by the promoted follower byte-identically to a
#      never-crashed reference daemon, straight from the replicated cache,
#   2. the promotion to bump the epoch durably (health reports role=leader
#      epoch=1; the follower journal carries the `epoch 1` record), and
#   3. `ipdb request --ports` to fail over from the dead leader's address
#      to the promoted follower on its own.
#
# If the victim leader answers the in-flight request before the SIGKILL
# lands, nothing was interrupted and the test reports an explicit SKIP for
# the mid-flight half (the acked-write half still ran).
#
# Usage: serve_failover.sh /path/to/bin/main.exe

set -euo pipefail

IPDB=${1:?usage: serve_failover.sh IPDB_EXE}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ipdb-serve-failover.XXXXXX")
cleanup() {
  for f in "$TMP"/*.pid; do
    [ -f "$f" ] && kill -9 "$(cat "$f")" 2> /dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "serve_failover: $1" >&2
  exit 1
}

skip() {
  echo "serve_failover: SKIP ($1)" >&2
  exit 0
}

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

health_int() {
  # health_int PORT FIELD -> integer
  "$IPDB" request --port "$1" --retries 20 "health" \
    | sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p"
}

health_str() {
  # health_str PORT FIELD -> string
  "$IPDB" request --port "$1" --retries 20 "health" \
    | sed -n "s/.*\"$2\": \"\([a-z]*\)\".*/\1/p"
}

# The acked load: quick certified verdicts, answered and journaled before
# the crash. The in-flight request is long enough to kill mid-compute.
ACKED=("classify geometric upto=100" "moments geometric k=2 upto=60" "criterion geometric c=1 upto=80")
INFLIGHT="criterion geometric upto=5000000"

# Seconds to wait before the SIGKILL: half the wall time the reference
# daemon needed for the in-flight request, so the kill lands mid-flight
# however fast the machine is (GNU date's %N; 0.6 s where that is
# unavailable).
half_elapsed() {
  awk -v a="$1" -v b="$2" -v d="0.6" \
    'BEGIN { if (a ~ /^[0-9]+$/ && b ~ /^[0-9]+$/) printf "%.3f", (b - a) / 2e9; else print d }'
}

# 0. Reference answers from an uninterrupted, unjournaled daemon.
PORT_R=$(start_daemon "$TMP/ref.out") || skip "daemon did not start (no loopback TCP?)"
: > "$TMP/ref.txt"
for req in "${ACKED[@]}"; do
  "$IPDB" request --port "$PORT_R" --retries 20 "$req" >> "$TMP/ref.txt" \
    || fail "reference request failed: $req"
done
t0=$(date +%s%N)
REF_INFLIGHT=$("$IPDB" request --port "$PORT_R" --retries 20 "$INFLIGHT") \
  || fail "reference in-flight request failed"
t1=$(date +%s%N)
delay=$(half_elapsed "$t0" "$t1")
kill "$(cat "$TMP/ref.out.pid")" 2> /dev/null || true

# 1. Leader (journaled) and follower (journaled, tailing the leader).
PORT_L=$(start_daemon "$TMP/leader.out" --journal "$TMP/leader.wal") \
  || fail "leader did not start"
LEADER=$(cat "$TMP/leader.out.pid")
PORT_F=$(start_daemon "$TMP/follower.out" --journal "$TMP/follower.wal" --follow "$PORT_L") \
  || fail "follower did not start"
[ "$(health_str "$PORT_L" role)" = "leader" ] || fail "leader health does not say leader"
[ "$(health_str "$PORT_F" role)" = "follower" ] || fail "follower health does not say follower"

# 2. Acked load on the leader, then wait for the follower to catch up
#    (health journal_pos reaches the leader's, lag drains to 0).
: > "$TMP/acked.txt"
for req in "${ACKED[@]}"; do
  "$IPDB" request --port "$PORT_L" --retries 20 "$req" >> "$TMP/acked.txt" \
    || fail "acked request failed: $req"
done
cmp -s "$TMP/acked.txt" "$TMP/ref.txt" || fail "leader verdicts differ from reference"
LPOS=$(health_int "$PORT_L" journal_pos)
CAUGHT=""
for i in $(seq 1 200); do
  FPOS=$(health_int "$PORT_F" journal_pos || echo 0)
  FLAG=$(health_int "$PORT_F" lag || echo 999)
  if [ -n "$FPOS" ] && [ "$FPOS" -ge "$LPOS" ] && [ "$FLAG" = "0" ]; then
    CAUGHT=1
    break
  fi
  sleep 0.1
done
[ -n "$CAUGHT" ] || fail "follower never caught up (leader pos=$LPOS)"

# The shipped journal prefix is byte-identical.
cmp -s "$TMP/leader.wal" "$TMP/follower.wal" \
  || fail "follower journal is not byte-identical to the leader's after catch-up"

# 3. SIGKILL the leader while a request is mid-compute.
MIDFLIGHT=1
"$IPDB" request --port "$PORT_L" --retries 20 "$INFLIGHT" > "$TMP/client.out" 2>&1 &
CLIENT=$!
sleep "$delay"
if ! kill -9 "$LEADER" 2> /dev/null; then
  MIDFLIGHT=""
fi
if wait "$CLIENT" 2> /dev/null; then
  MIDFLIGHT=""
fi

# 4. Promote the follower; the epoch bump must be visible and durable.
PROMOTED=$("$IPDB" promote --port "$PORT_F" --retries 20) || fail "promote failed: $PROMOTED"
case "$PROMOTED" in
  0\ promoted\ epoch=1*) ;;
  *) fail "unexpected promote response: $PROMOTED" ;;
esac
[ "$(health_str "$PORT_F" role)" = "leader" ] || fail "promoted follower does not report leader"
[ "$(health_int "$PORT_F" epoch)" = "1" ] || fail "promoted follower does not report epoch 1"
grep -q "epoch 1" "$TMP/follower.wal" || fail "epoch bump not journaled on the follower"

# 5. Zero acked-write loss: every acknowledged verdict answers on the
#    promoted follower byte-identically to the reference.
HITS_BEFORE=$(health_int "$PORT_F" cache_hits)
: > "$TMP/failover.txt"
for req in "${ACKED[@]}"; do
  "$IPDB" request --port "$PORT_F" --retries 20 "$req" >> "$TMP/failover.txt" \
    || fail "promoted follower refused acked request: $req"
done
cmp -s "$TMP/failover.txt" "$TMP/ref.txt" \
  || fail "acked verdicts lost or changed across failover: $(diff "$TMP/ref.txt" "$TMP/failover.txt" | head -4)"
HITS_AFTER=$(health_int "$PORT_F" cache_hits)
[ "$HITS_AFTER" -gt "$HITS_BEFORE" ] \
  || fail "acked verdicts were recomputed, not served from the replicated cache"

# 6. The in-flight request converges byte-identically on the new leader
#    (either replayed at promotion or recomputed on re-ask).
GOT_INFLIGHT=$("$IPDB" request --port "$PORT_F" --retries 20 "$INFLIGHT") \
  || fail "in-flight request failed on the promoted follower"
[ "$GOT_INFLIGHT" = "$REF_INFLIGHT" ] \
  || fail "in-flight verdict differs after failover: $(printf '%q' "$GOT_INFLIGHT")"

# 7. Client-side failover: the dead leader's address first, the promoted
#    follower second; the sweep must land on the follower by itself.
GOT=$("$IPDB" request --ports "$PORT_L,$PORT_F" --retries 20 "${ACKED[0]}") \
  || fail "--ports failover through the dead leader failed"
[ "$GOT" = "$(head -1 "$TMP/ref.txt")" ] || fail "--ports failover answered wrongly: $GOT"

if [ -z "$MIDFLIGHT" ]; then
  skip "leader finished the in-flight request before SIGKILL; acked-write half passed"
fi
echo "serve_failover: OK" >&2
