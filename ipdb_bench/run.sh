#!/bin/sh
# Build the CLI and the benchmark from source, then run one workload.
# Run from the root of an ipdb source tree:
#
#   sh ipdb_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -eu

if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -d lib ]; then
  echo "run.sh: not the root of an ipdb source tree (no dune-project, bin/main.ml or lib/)" >&2
  exit 2
fi
command -v dune > /dev/null 2>&1 || eval "$(opam env 2> /dev/null)" || true
dune build --root . ./bin/main.exe ./ipdb_bench/ipdb_bench.exe 1>&2
exec ./_build/default/ipdb_bench/ipdb_bench.exe "$@"
