#!/usr/bin/env bash
# Golden CLI contract test: every documented exit code (0–4) with its
# exact verdict text, plus the observability surface — bench --json line
# schema (including the per-experiment "steps" field and the trailing
# metrics snapshot), --trace JSONL sanity, and the --metrics stderr
# summary with its exact term count.
#
# Usage: cli_contract.sh /path/to/bin/main.exe /path/to/bench/main.exe

set -euo pipefail

IPDB=${1:?usage: cli_contract.sh IPDB_EXE BENCH_EXE}
BENCH=${2:?usage: cli_contract.sh IPDB_EXE BENCH_EXE}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ipdb-cli.XXXXXX")
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "cli_contract: $1" >&2
  exit 1
}

# run <expected-exit> <label> <cmd...>: capture stdout/stderr, check code.
run() {
  local expect=$1 label=$2
  shift 2
  local code=0
  "$@" > "$TMP/out" 2> "$TMP/err" || code=$?
  [ "$code" -eq "$expect" ] \
    || fail "$label: expected exit $expect, got $code (stderr: $(cat "$TMP/err"))"
}

# ---------------------------------------------------------------- exit 0
run 0 "exit0" "$IPDB" criterion geometric --upto 2000
printf 'Σ|D|·P(D)^(1/|D|) ∈ [1, 1] < ∞ ⟹ in FO(TI) (Theorem 5.3)\n' > "$TMP/want"
cmp -s "$TMP/out" "$TMP/want" || fail "exit0: verdict text drifted: $(cat "$TMP/out")"

# ---------------------------------------------------------------- exit 1
run 1 "exit1" "$IPDB" classify example-3.5
printf 'NOT in FO(TI): 2-th size moment certified infinite (partial sum 165, Prop. 3.4)\n' > "$TMP/want"
cmp -s "$TMP/out" "$TMP/want" || fail "exit1: verdict text drifted: $(cat "$TMP/out")"

# ---------------------------------------------------------------- exit 2
run 2 "exit2-family" "$IPDB" classify no-such-family
grep -q 'unknown family no-such-family' "$TMP/err" || fail "exit2: missing diagnostic"
run 2 "exit2-trace" "$IPDB" criterion geometric --upto 10 --trace /nonexistent-ipdb-dir/t.jsonl
grep -q 'cannot open trace file' "$TMP/err" || fail "exit2-trace: missing diagnostic"

# ---------------------------------------------------------------- exit 3
run 3 "exit3" "$IPDB" criterion geometric --upto 100000000 --max-steps 5000
printf 'Σ|D|·P(D)^(1/|D|): partial: step budget exhausted (5000 steps, limit 5000) after 5000 of 100000000 terms (partial sum 1; certified enclosure so far [1, 1])\n' > "$TMP/want"
cmp -s "$TMP/out" "$TMP/want" || fail "exit3: partial verdict text drifted: $(cat "$TMP/out")"

# ---------------------------------------------------------------- exit 4
run 4 "exit4" "$BENCH" --only figures --journal "$TMP"
grep -q 'cannot open journal' "$TMP/err" || fail "exit4: missing diagnostic"

# ------------------------------------------------- bench --json schema
run 0 "bench-json" "$BENCH" --only figures,classifier --jobs 2 \
  --json "$TMP/b.json" --trace "$TMP/b.jsonl" --metrics
head -n1 "$TMP/b.json" | grep -q '^{"jobs": 2}$' || fail "bench-json: bad header line"
# every experiment line carries name/status/seconds/steps in order
if sed -n '2,$p' "$TMP/b.json" | grep -v '^{"metrics": ' \
  | grep -qv '^{"name": "[^"]*", "status": "[a-z]*", "seconds": [0-9.]*, "steps": [0-9]*}$'; then
  fail "bench-json: experiment line violates the schema"
fi
grep -c '^{"name": ' "$TMP/b.json" | grep -qx 2 || fail "bench-json: expected 2 experiment lines"
# the classifier experiment consumes budget steps; figures runs unbudgeted
grep -q '^{"name": "classifier", "status": "ok", "seconds": [0-9.]*, "steps": [1-9]' "$TMP/b.json" \
  || fail "bench-json: classifier steps missing or zero"
grep -q '^{"name": "figures", "status": "ok", "seconds": [0-9.]*, "steps": 0}$' "$TMP/b.json" \
  || fail "bench-json: figures should report zero steps"
# trailing metrics snapshot line with the three registries
tail -n1 "$TMP/b.json" | grep -q '^{"metrics": {"counters": {.*}, "gauges": {.*}, "histograms": {.*}}}$' \
  || fail "bench-json: missing metrics snapshot line"
# --metrics also prints a human summary on stderr
grep -q '^metric series\.terms [0-9]' "$TMP/err" || fail "bench-json: no metric summary on stderr"

# ------------------------------------------------- trace JSONL sanity
for f in "$TMP/b.jsonl"; do
  [ -s "$f" ] || fail "trace: $f is empty"
  if grep -qv '^{"ev": "' "$f"; then fail "trace: non-event line in $f"; fi
  grep -q '"ev": "span_begin"' "$f" || fail "trace: no span_begin events"
  grep -q '"name": "bench.experiment"' "$f" || fail "trace: no experiment spans"
  grep -q '"ev": "metrics"' "$f" || fail "trace: no metrics event"
  b=$(grep -c '"ev": "span_begin"' "$f")
  e=$(grep -c '"ev": "span_end"' "$f")
  [ "$b" -eq "$e" ] || fail "trace: $b span_begin vs $e span_end"
done

# ------------------------------------------- ipdb kb exit contract
# gen → ingest → query covering exits 0 (positive marginal), 1 (certified
# zero), 2 (unsafe plan without --mc-samples; missing file), 3 (budget),
# plus the Monte-Carlo fallback and the exact independence test.
golden() {
  printf '%s\n' "$1" > "$TMP/want"
  cmp -s "$TMP/out" "$TMP/want" || fail "$2: answer drifted: $(cat "$TMP/out")"
}
run 0 "kb-gen" "$IPDB" kb gen -o "$TMP/kb.kb" --facts 200 --seed 3 \
  --relations R/2,T/1 --universe 50
grep -qx 'wrote 200 facts to .*/kb\.kb' "$TMP/out" || fail "kb-gen: bad summary line"
run 0 "kb-stats" "$IPDB" kb stats "$TMP/kb.kb"
grep -qx 'facts: 200' "$TMP/out" || fail "kb-stats: wrong fact count"
grep -qx 'digest: [0-9a-f]\{16\}' "$TMP/out" || fail "kb-stats: missing digest"
# The whole summary is pinned: the distinct-value count and the expected
# size depend on intern order, so a reordering ingest would show here.
golden "$(printf '%s\n' \
  'relation R/2: 197 facts' \
  'relation T/1: 3 facts' \
  'facts: 200' \
  'distinct values: 50' \
  'spilled marginals: 0' \
  'zero-marginal lines dropped: 0' \
  'expected instance size: 101.3497' \
  'digest: 22caaf0510931267')" "kb-stats"
digest1=$(grep '^digest: ' "$TMP/out")
run 0 "kb-stats-again" "$IPDB" kb stats "$TMP/kb.kb"
[ "$(grep '^digest: ' "$TMP/out")" = "$digest1" ] || fail "kb-stats: digest not stable"

# A zero denominator is a parse error (exit 2), never an internal one.
printf 'ipdbkb1\nrel T 1\nT 1/0 5\n' > "$TMP/zero.kb"
run 2 "kb-zero-denominator" "$IPDB" kb ingest "$TMP/zero.kb"
grep -qx 'ipdb: E_PARSE: cannot parse .*/zero\.kb: line 3: unparsable marginal "1/0"' "$TMP/err" \
  || fail "kb-zero-denominator: wrong diagnostic: $(cat "$TMP/err")"

# Which reader ran: a generated kb takes the native reader for every
# token (the counter stays 0, so --metrics omits it); this file sends
# exactly six tokens to the general one (0.25 alice +5 0.5 0x1F bob).
run 0 "kb-general-none" "$IPDB" kb ingest "$TMP/kb.kb" --metrics
grep -q '^metric kb\.ingest\.facts 200$' "$TMP/err" || fail "kb-general-none: no ingest metrics"
if grep -q '^metric kb\.ingest\.general_tokens' "$TMP/err"; then
  fail "kb-general-none: generated kb left the native reader: $(cat "$TMP/err")"
fi
printf '%s\n' ipdbkb1 'rel R 2' 'rel T 1' 'T 0.25 alice' 'T 1/3 +5' 'T 2/3 -3' \
  'R 0.5 0x1F 7' 'R 1/2 _ bob' 'R 3/4 _ 12' > "$TMP/general.kb"
run 0 "kb-general-count" "$IPDB" kb ingest "$TMP/general.kb" --metrics
grep -qx 'metric kb\.ingest\.general_tokens 6' "$TMP/err" \
  || fail "kb-general-count: general-token count drifted: $(cat "$TMP/err")"

# Golden answers on this kb: every printed rational is pinned byte for
# byte, so a change of plan cannot drift an answer unnoticed. Shapes:
# project, join, union, A ∨ (A ∧ B) and a repeated variable.
run 0 "kb-exit0" "$IPDB" kb query "$TMP/kb.kb" 'exists x y. R(x,y)'
golden 'P(∃x.(∃y.R(x,y))) = 24642010070514050993700157811537455479217256585875733191065599999999999/24642010070514050993700157811537455479217256585875733191065600000000000 ≈ 0.99999999' "kb-exit0"
run 0 "kb-join" "$IPDB" kb query "$TMP/kb.kb" 'exists x y. (R(x,y) & T(x))'
golden 'P(∃x.(∃y.(R(x,y) ∧ T(x)))) = 426007283/451630080 ≈ 0.94326596' "kb-join"
# Every real index build is one store.index_build span naming its
# relation, mask and rows; the join's ground T(x) probes build none.
run 0 "kb-index-spans" "$IPDB" kb query "$TMP/kb.kb" 'exists x y. (R(x,y) & T(x))' --trace "$TMP/kb.jsonl"
grep -o '"name": "store.index_build", "attrs": {[^}]*}' "$TMP/kb.jsonl" > "$TMP/out" || true
golden "$(printf '%s\n' \
  '"name": "store.index_build", "attrs": {"rel": "R", "mask": 0, "rows": 197}' \
  '"name": "store.index_build", "attrs": {"rel": "T", "mask": 0, "rows": 3}' \
  '"name": "store.index_build", "attrs": {"rel": "R", "mask": 1, "rows": 197}')" "kb-index-spans"
run 0 "kb-union" "$IPDB" kb query "$TMP/kb.kb" '(exists x. T(x)) | (exists x y. R(x,y))'
golden 'P((∃x.T(x)) ∨ (∃x.(∃y.R(x,y)))) = 929355808373672780333834523177984035216193676953027651777331199999999999/929355808373672780333834523177984035216193676953027651777331200000000000 ≈ 0.99999999' "kb-union"
run 0 "kb-absorb" "$IPDB" kb query "$TMP/kb.kb" '(exists x. T(x)) | ((exists x. T(x)) & (exists x y. R(x,y)))'
golden 'P((∃x.T(x)) ∨ ((∃x.T(x)) ∧ (∃x.(∃y.R(x,y))))) = 257/264 ≈ 0.97348484' "kb-absorb"
run 0 "kb-diag" "$IPDB" kb query "$TMP/kb.kb" 'exists x. R(x,x)'
golden 'P(∃x.R(x,x)) = 53/54 ≈ 0.98148148' "kb-diag"
run 1 "kb-exit1" "$IPDB" kb query "$TMP/kb.kb" 'T(999999)'
printf 'P(T(999999)) = 0 ≈ 0.00000000\n' > "$TMP/want"
cmp -s "$TMP/out" "$TMP/want" || fail "kb-exit1: verdict text drifted: $(cat "$TMP/out")"
run 2 "kb-exit2-unsafe" "$IPDB" kb query "$TMP/kb.kb" 'exists x y. (R(x,y) and R(y,x))'
grep -q 'E_VALIDATION.*no safe lifted plan (self-join on R)' "$TMP/err" \
  || fail "kb-exit2-unsafe: missing diagnostic"
run 2 "kb-exit2-missing" "$IPDB" kb query "$TMP/nope.kb" 'T(1)'
grep -q 'E_IO' "$TMP/err" || fail "kb-exit2-missing: missing diagnostic"
run 3 "kb-exit3" "$IPDB" kb query "$TMP/kb.kb" --max-steps 1 'exists x y. R(x,y)'
grep -q 'E_BUDGET: kb\.query: step budget exhausted' "$TMP/err" || fail "kb-exit3: missing diagnostic"

# unsafe query + --mc-samples: Hoeffding estimate, deterministic under --seed
run 0 "kb-mc" "$IPDB" kb query "$TMP/kb.kb" --mc-samples 400 --seed 9 \
  'exists x y. (R(x,y) and R(y,x))'
grep -q '± .* (mc, 400 samples, confidence 0.95' "$TMP/out" || fail "kb-mc: estimate line drifted"
# Sampling walks the rows in order, so the seeded estimate pins row order.
golden 'P(∃x.(∃y.(R(x,y) ∧ R(y,x)))) ≈ 0.992500 ± 0.067905 (mc, 400 samples, confidence 0.95, interval [0.924595, 1])' "kb-mc"
cp "$TMP/out" "$TMP/mc1"
run 0 "kb-mc-repeat" "$IPDB" kb query "$TMP/kb.kb" --mc-samples 400 --seed 9 \
  'exists x y. (R(x,y) and R(y,x))'
cmp -s "$TMP/out" "$TMP/mc1" || fail "kb-mc: seeded estimate not reproducible"

run 0 "kb-indep" "$IPDB" kb indep "$TMP/kb.kb" 'exists x y. R(x,y)' 'exists x. T(x)'
grep -qx 'independent: true' "$TMP/out" || fail "kb-indep: disjoint relations not independent"
golden "$(printf '%s\n' \
  'P(Q1) = 24642010070514050993700157811537455479217256585875733191065599999999999/24642010070514050993700157811537455479217256585875733191065600000000000' \
  'P(Q2) = 257/264' \
  'P(Q1 and Q2) = 6332996588122111105380940557565126058158834942570063430103859199999999743/6505490658615709462336841662245888246513355738671193562441318400000000000' \
  'P(Q1)*P(Q2) = 6332996588122111105380940557565126058158834942570063430103859199999999743/6505490658615709462336841662245888246513355738671193562441318400000000000' \
  'independent: true')" "kb-indep"
run 1 "kb-dep" "$IPDB" kb indep "$TMP/kb.kb" 'exists x. T(x)' 'exists x. T(x)'
grep -qx 'independent: false' "$TMP/out" || fail "kb-dep: self-dependence missed"
golden "$(printf '%s\n' \
  'P(Q1) = 257/264' \
  'P(Q2) = 257/264' \
  'P(Q1 and Q2) = 257/264' \
  'P(Q1)*P(Q2) = 66049/69696' \
  'independent: false')" "kb-dep"

# ------------------------------------------- export / import
# A missing file and a directory are one-line E_IO diagnostics (exit 2)
# naming the path once; an exported TI-PDB imports back to its moments.
run 2 "import-missing" "$IPDB" import /nonexistent-ipdb-dir/x.ti
printf 'ipdb: E_IO: I/O failure on /nonexistent-ipdb-dir/x.ti: No such file or directory\n' > "$TMP/want"
cmp -s "$TMP/err" "$TMP/want" || fail "import-missing: diagnostic drifted: $(cat "$TMP/err")"
mkdir "$TMP/dir.ti"
run 2 "import-dir" "$IPDB" import "$TMP/dir.ti"
printf 'ipdb: E_IO: I/O failure on %s: Is a directory\n' "$TMP/dir.ti" > "$TMP/want"
cmp -s "$TMP/err" "$TMP/want" || fail "import-dir: diagnostic drifted: $(cat "$TMP/err")"
run 0 "export" "$IPDB" export example-b3
cp "$TMP/out" "$TMP/b3.ti"
run 0 "import-roundtrip" "$IPDB" import "$TMP/b3.ti"
golden "$(printf '%s\n' \
  'tuple-independent PDB: 2 facts' \
  '  E|D|  = 5/6 (= Σ marginals)' \
  '  Var|D| = 17/36')" "import-roundtrip"

# ------------------------------------------- CLI --trace and --metrics
run 0 "cli-trace" "$IPDB" criterion geometric --upto 2000 --trace "$TMP/c.jsonl" --metrics
[ -s "$TMP/c.jsonl" ] || fail "cli-trace: empty trace"
grep -q '"name": "criteria.check"' "$TMP/c.jsonl" || fail "cli-trace: no criteria span"
grep -q '"name": "series.sum"' "$TMP/c.jsonl" || fail "cli-trace: no series span"
# the metrics summary counts exactly the 2000 evaluated terms
grep -qx 'metric series\.terms 2000' "$TMP/err" || fail "cli-trace: terms summary not exact"

# ------------------------------------------ pool workers left parked at exit
# The CLI does not join its pool's workers at exit: every fan-out has
# settled by then, so the workers are idle. A pooled run over 98 chunks
# must still print the silent run's stdout, close every span it opened,
# end its trace on a complete line and count every pool task.
run 0 "pool-exit silent" "$IPDB" criterion geometric --upto 200000 --jobs 2
cp "$TMP/out" "$TMP/silent"
run 0 "pool-exit" "$IPDB" criterion geometric --upto 200000 --jobs 2 --trace "$TMP/p.jsonl" --metrics
cmp -s "$TMP/out" "$TMP/silent" || fail "pool-exit: --trace --metrics changed stdout: $(cat "$TMP/out")"
[ -s "$TMP/p.jsonl" ] && [ -z "$(tail -c1 "$TMP/p.jsonl")" ] || fail "pool-exit: trace does not end on a complete line"
span_ids() { grep "\"ev\": \"$1\"" "$TMP/p.jsonl" | sed -E 's/.*"dom": [0-9]+, "id": ([0-9]+),.*/\1/' | sort -n; }
span_ids span_begin > "$TMP/begun"
span_ids span_end > "$TMP/ended"
[ "$(wc -l < "$TMP/begun")" -eq 100 ] || fail "pool-exit: expected 100 spans, got $(wc -l < "$TMP/begun")"
cmp -s "$TMP/begun" "$TMP/ended" || fail "pool-exit: a span_begin has no matching span_end"
grep -qx 'metric pool\.tasks 98' "$TMP/err" || fail "pool-exit: pool task count not exact"

# ------------------------------------- watching does not change the output
# A budgeted, metered or traced run prints the silent run's stdout byte
# for byte, and its counters are exact: 200000 terms and steps, one
# widening per term, and ceil(200000 / 2048) = 98 chunks.
metric_lines() { grep -E '^metric (series\.(terms|chunks|widenings)|budget\.steps) ' "$TMP/err" || true; }
watched() {
  local label=$1
  shift
  run 0 "$label silent" "$IPDB" "$@"
  cp "$TMP/out" "$TMP/silent"
  run 0 "$label budgeted" "$IPDB" "$@" --max-steps 1000000000
  cmp -s "$TMP/out" "$TMP/silent" || fail "$label: --max-steps changed stdout: $(cat "$TMP/out")"
  run 0 "$label metered" "$IPDB" "$@" --metrics
  cmp -s "$TMP/out" "$TMP/silent" || fail "$label: --metrics changed stdout: $(cat "$TMP/out")"
  printf 'metric series.chunks 98\nmetric series.terms 200000\nmetric series.widenings 200000\n' > "$TMP/want"
  metric_lines | cmp -s - "$TMP/want" || fail "$label: metered counters drifted: $(metric_lines)"
  run 0 "$label traced" "$IPDB" "$@" --trace "$TMP/w.jsonl"
  cmp -s "$TMP/out" "$TMP/silent" || fail "$label: --trace changed stdout: $(cat "$TMP/out")"
  grep -q '"name": "series.chunk"' "$TMP/w.jsonl" || fail "$label: no chunk spans in the trace"
  run 0 "$label budgeted+metered" "$IPDB" "$@" --max-steps 1000000000 --metrics
  cmp -s "$TMP/out" "$TMP/silent" || fail "$label: --max-steps --metrics changed stdout: $(cat "$TMP/out")"
  printf 'metric budget.steps 200000\nmetric series.chunks 98\nmetric series.terms 200000\nmetric series.widenings 200000\n' > "$TMP/want"
  metric_lines | cmp -s - "$TMP/want" || fail "$label: budgeted counters drifted: $(metric_lines)"
}
watched "watch-criterion" criterion geometric --upto 200000
watched "watch-moments" moments sqrt-growth -k 1 --upto 200000

echo "cli_contract: OK (exit codes 0-4, json schema, trace and metrics surface)"
