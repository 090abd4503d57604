#!/usr/bin/env bash
# The Env seam: every file the program reads or writes goes through
# Ipdb_env.Env, so the simulated backend (Simenv) and the crash-point
# explorer reach all of them. Fails when any .ml under lib/ or bin/,
# other than the unix backend itself (lib/run/env.ml), calls path-based
# file I/O directly: open_in*/open_out*, In_channel/Out_channel,
# Unix.openfile/rename/unlink/mkdir or Sys.remove/rename/file_exists.
#
# Usage: env_seam.sh REPO_ROOT

set -euo pipefail

ROOT=${1:?usage: env_seam.sh REPO_ROOT}
cd "$ROOT"
[ -d lib ] && [ -d bin ] || { echo "env_seam: no lib/ and bin/ under $ROOT" >&2; exit 1; }

PATTERN='\b(open_in|open_out)[a-z_]*\b|\b(In_channel|Out_channel)\.|\bUnix\.(openfile|rename|unlink|mkdir)\b|\bSys\.(remove|rename|file_exists)\b'

files=$(find lib bin -name '*.ml' ! -name '*.pp.ml' ! -path '*/.*' ! -path lib/run/env.ml | sort)
[ -n "$files" ] || { echo "env_seam: no .ml files found under lib/ and bin/" >&2; exit 1; }

# grep exits 1 when nothing matches, which is the passing case.
hits=$(echo "$files" | xargs grep -nE "$PATTERN" || true)
if [ -n "$hits" ]; then
  echo "env_seam: path-based file I/O outside lib/run/env.ml (use Ioutil or Env.current ()):" >&2
  echo "$hits" >&2
  exit 1
fi
echo "env_seam: OK ($(echo "$files" | wc -l) files)"
