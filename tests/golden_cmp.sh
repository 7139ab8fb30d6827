#!/usr/bin/env bash
# Golden-output regression gate: run a bench binary at smoke scale in a
# scratch directory and byte-compare one of its output files against a
# golden committed under tests/goldens/. Guards the tier-vector memory API's
# two-tier contract — on the classic topology the refactored substrate must
# reproduce the pre-refactor numbers exactly, not approximately. Any extra
# VAR=value arguments are set in the bench's environment (e.g. a fault plan).
#
# usage: golden_cmp.sh <bench-binary> <golden-file> <produced-filename> [VAR=value...]
set -euo pipefail

bench=$1
golden=$2
produced=$3
shift 3

if [[ ! -f "$golden" ]]; then
  echo "golden missing: $golden" >&2
  exit 1
fi

scratch=$(mktemp -d "${TMPDIR:-/tmp}/mtat_golden.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

(cd "$scratch" && env MTAT_SCALE=smoke "$@" "$bench" >stdout.txt 2>stderr.txt) || {
  echo "golden_cmp: $bench failed:" >&2
  cat "$scratch/stderr.txt" >&2
  exit 1
}

if ! cmp "$golden" "$scratch/$produced"; then
  echo "golden_cmp: $produced differs from $golden" >&2
  echo "--- diff (golden vs produced) ---" >&2
  diff "$golden" "$scratch/$produced" >&2 || true
  exit 1
fi
echo "golden_cmp: $produced is byte-identical to $(basename "$golden")"
