#!/usr/bin/env bash
# Whole-workload replay on the unfiltered reference arithmetic
# (DESIGN.md §14): with IPDB_ARITH_REFERENCE=1 every fast path — native-int
# shortcuts, Karatsuba, the float comparison filter, batched GCD, memoised
# powers — is disabled process-wide, and every suite must still pass with
# identical verdicts. Runs the differential oracle, the kb and serve
# contract suites, and the series counter (test_obs) and determinism
# (test_par) suites under the switch: the reference interval fold is the
# one series code path that differs between the modes, so its widening
# counts, snapshots and progress streams get the same exactness checks.
#
# Usage: arith_reference.sh DIFF_EXE KB_EXE SERVE_SCRIPT IPDB_EXE OBS_EXE PAR_EXE
set -euo pipefail

# Slash-free relative paths (same-directory executables) would otherwise
# hit a PATH lookup from bash.
norm() { case "$1" in */*) printf '%s' "$1" ;; *) printf './%s' "$1" ;; esac; }

diff_exe=$(norm "$1")
kb_exe=$(norm "$2")
serve_script=$(norm "$3")
ipdb_exe=$(norm "$4")
obs_exe=$(norm "$5")
par_exe=$(norm "$6")

export IPDB_ARITH_REFERENCE=1

# Private alcotest output dirs: the same executables also run (without the
# switch) in the regular test stanza, and concurrent runs must not race on
# the shared _tests/latest symlinks.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
mkdir -p "$out/diff" "$out/kb" "$out/obs" "$out/par"

echo "arith_reference: differential oracle under IPDB_ARITH_REFERENCE=1"
"$diff_exe" -o "$out/diff" >/dev/null

echo "arith_reference: kb contract under IPDB_ARITH_REFERENCE=1"
"$kb_exe" -o "$out/kb" >/dev/null

echo "arith_reference: series counters under IPDB_ARITH_REFERENCE=1"
"$obs_exe" -o "$out/obs" >/dev/null

echo "arith_reference: series determinism under IPDB_ARITH_REFERENCE=1"
"$par_exe" -o "$out/par" >/dev/null

echo "arith_reference: serve contract under IPDB_ARITH_REFERENCE=1"
bash "$serve_script" "$ipdb_exe"

echo "arith_reference: OK"
