#!/usr/bin/env bash
# Every golden a ctest gate compares against must be committed: a golden
# that exists only in one working tree passes there and fails on every clean
# checkout. Lists the tests/goldens/ paths named in tests/CMakeLists.txt and
# fails on any that `git ls-files` does not know.
#
# usage: tests/goldens_tracked.sh   (from anywhere inside the repository)
set -euo pipefail

cd "$(dirname "$0")/.."
status=0
for golden in $(grep -o 'tests/goldens/[^ )]*' tests/CMakeLists.txt | sort -u); do
  if [[ -z "$(git ls-files -- "$golden")" ]]; then
    echo "golden not in git: $golden" >&2
    status=1
  fi
done
exit "$status"
