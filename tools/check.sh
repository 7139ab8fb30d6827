#!/usr/bin/env bash
# Full pre-merge check: build and run the test suite in Release and under
# ASan, UBSan, and TSan (via the MTAT_SANITIZE cache option in the top-level
# CMakeLists.txt), all with -Werror (MTAT_WERROR=ON). Every lane's ctest run
# includes the mtat_lint tree scan (the `lint_tree` test), so a lint
# violation fails the suite the same way a broken test does. When clang-tidy
# is installed, a tidy pass over src/ runs as a final lane; when it is not
# (e.g. the minimal CI container), that lane is skipped with a notice.
#
# Build trees live under build-check/ so the default ./build tree is left
# alone.
#
# Usage: tools/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

# Every golden a ctest compares against must be in git, or the gate passes
# here and fails on a clean checkout.
echo "==== goldens are committed ===="
tests/goldens_tracked.sh

# Determinism/ownership gates live in mtat_lint (DESIGN.md §15). Run it
# first, standalone, so a finding fails fast before any full lane builds.
echo "==== mtat_lint (tree-wide static analysis) ===="
cmake -B build-check/release -S . -DCMAKE_BUILD_TYPE=Release \
      -DMTAT_SANITIZE= -DMTAT_WERROR=ON >/dev/null
cmake --build build-check/release -j "${jobs}" --target mtat_lint >/dev/null
build-check/release/tools/lint/mtat_lint --root="$PWD"

run_config() {
  local name="$1" sanitize="$2"
  shift 2
  local dir="build-check/${name}"
  echo "==== ${name} (MTAT_SANITIZE='${sanitize}', MTAT_WERROR=ON) ===="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release \
        -DMTAT_SANITIZE="${sanitize}" -DMTAT_WERROR=ON >/dev/null
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" "$@"
}

run_config release "" "$@"
run_config asan address "$@"
run_config ubsan undefined "$@"
run_config tsan thread "$@"

# One real bench end-to-end on a worker pool under TSan: the smoke preset
# keeps it to seconds of simulated work while still fanning twelve
# (policy, load) cells plus the bisection probes across two threads.
echo "==== parallel bench smoke (TSan, MTAT_SCALE=smoke, MTAT_JOBS=2) ===="
repo_root=$PWD
smoke_dir=$(mktemp -d)
(cd "${smoke_dir}" &&
 MTAT_SCALE=smoke MTAT_JOBS=2 "${repo_root}/build-check/tsan/bench/fig9_table4_load_levels")
rm -rf "${smoke_dir}"

# The fault-tolerance sweep end-to-end under ASan and UBSan: a full-intensity
# storm drives every degradation path — migration rollback/backoff, telemetry
# blackout, the watchdog ladder — exactly where lifetime and UB bugs in the
# recovery code would hide (DESIGN.md §12).
for lane in asan ubsan; do
  echo "==== fault-injection bench smoke (${lane}, MTAT_SCALE=smoke, MTAT_JOBS=2) ===="
  smoke_dir=$(mktemp -d)
  (cd "${smoke_dir}" &&
   MTAT_SCALE=smoke MTAT_JOBS=2 "${repo_root}/build-check/${lane}/bench/ext_fault_tolerance")
  rm -rf "${smoke_dir}"
done

# The fleet-scale cluster bench end-to-end: a hundred-plus node shards fanned
# across a worker pool, in release and again under ASan — the shard
# closures copy results out of contexts run_all destroys on return, which is
# exactly where lifetime bugs would hide (DESIGN.md §13).
for lane in release asan; do
  echo "==== cluster bench smoke (${lane}, MTAT_SCALE=smoke, MTAT_JOBS=2) ===="
  smoke_dir=$(mktemp -d)
  (cd "${smoke_dir}" &&
   MTAT_SCALE=smoke MTAT_JOBS=2 "${repo_root}/build-check/${lane}/bench/ext_cluster_slo")
  rm -rf "${smoke_dir}"
done

# The fleet failure domain end-to-end: the fault-tolerance sweep drives the
# epoch loop's every path — injected crashes and blackouts, the watchdog,
# tenant evacuation with backoff, checkpoint replay on warm restarts — in
# release and again under ASan, where the checkpoint/restore and
# node-teardown code would hide lifetime bugs (DESIGN.md §17). MTAT_NODES=8
# bounds the quadratic warm-replay cost in the sanitizer lane.
for lane in release asan; do
  echo "==== cluster fault-tolerance bench smoke (${lane}, MTAT_SCALE=smoke, MTAT_JOBS=2) ===="
  smoke_dir=$(mktemp -d)
  (cd "${smoke_dir}" &&
   MTAT_SCALE=smoke MTAT_JOBS=2 MTAT_NODES=8 \
   "${repo_root}/build-check/${lane}/bench/ext_cluster_fault_tolerance")
  rm -rf "${smoke_dir}"
done

# An N-tier topology end-to-end, in release and again under ASan: the
# three-tier spec exercises the tier-vector paths two-tier runs leave cold —
# per-link budgets, cascaded demotion, the slower-aggregate telemetry — and
# ASan watches the per-link vectors and spill loops for off-by-one indexing
# (DESIGN.md §16).
for lane in release asan; do
  echo "==== 3-tier topology bench smoke (${lane}, MTAT_SCALE=smoke, MTAT_JOBS=2) ===="
  smoke_dir=$(mktemp -d)
  (cd "${smoke_dir}" &&
   MTAT_SCALE=smoke MTAT_JOBS=2 \
   MTAT_TOPOLOGY="dram:32M:73;cxl:256M:202:2G;nvm:512M:450:1G" \
   "${repo_root}/build-check/${lane}/bench/fig9_table4_load_levels")
  rm -rf "${smoke_dir}"
done

# The perf lane end-to-end: gate the committed trajectory (same check the
# perf_diff_trajectory ctest runs in every lane), then append a fresh
# smoke-scale entry to a scratch copy and report it against the committed
# tail. The report is informational (--report-only): absolute ops/s from
# this machine are not comparable to the committed entries' machine.
echo "==== perf regression gate (perf_diff --trajectory BENCH_core.json) ===="
"${repo_root}/build-check/release/tools/perf_diff/perf_diff" --trajectory BENCH_core.json
echo "==== perf regression gate (perf_diff --trajectory BENCH_cluster.json) ===="
"${repo_root}/build-check/release/tools/perf_diff/perf_diff" --trajectory BENCH_cluster.json
echo "==== perf regression gate (perf_diff --trajectory BENCH_setup.json) ===="
"${repo_root}/build-check/release/tools/perf_diff/perf_diff" --trajectory BENCH_setup.json
echo "==== perf lane smoke (release, MTAT_SCALE=smoke, fresh entry report) ===="
smoke_dir=$(mktemp -d)
cp BENCH_core.json "${smoke_dir}/"
(cd "${smoke_dir}" &&
 MTAT_SCALE=smoke MTAT_PERF_LABEL=check-smoke "${repo_root}/build-check/release/bench/perf_core" &&
 "${repo_root}/build-check/release/tools/perf_diff/perf_diff" --report-only --trajectory BENCH_core.json)
rm -rf "${smoke_dir}"
# Same for the set-up lane (R-MAT generation, CSR build, profile extraction).
echo "==== set-up perf lane smoke (release, MTAT_SCALE=smoke, fresh entry report) ===="
smoke_dir=$(mktemp -d)
cp BENCH_setup.json "${smoke_dir}/"
(cd "${smoke_dir}" &&
 MTAT_SCALE=smoke MTAT_PERF_LABEL=check-smoke "${repo_root}/build-check/release/bench/perf_setup" &&
 "${repo_root}/build-check/release/tools/perf_diff/perf_diff" --report-only --trajectory BENCH_setup.json)
rm -rf "${smoke_dir}"

# The repository benchmark (perfbench/) compiles src/ on its own; its
# self-test builds it and checks it end to end at a tiny size.
echo "==== repository benchmark self-test (perfbench/selftest.py) ===="
python3 perfbench/selftest.py

# Thread-safety lane: clang's -Wthread-safety *proves* the GUARDED_BY /
# REQUIRES / EXCLUDES contracts from src/common/thread_annotations.h (the
# mtat_lint guarded-by rule only enforces that annotations exist — GCC
# compiles them away). Build-only: the annotated code is identical, so the
# test suites above already cover its behavior.
if command -v clang++ >/dev/null 2>&1; then
  echo "==== clang -Wthread-safety lane (MTAT_THREAD_SAFETY=ON, build only) ===="
  cmake -B build-check/thread-safety -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_COMPILER=clang++ -DMTAT_THREAD_SAFETY=ON >/dev/null
  cmake --build build-check/thread-safety -j "${jobs}"
else
  echo "==== clang++ not installed; skipping thread-safety lane ===="
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==== clang-tidy (src/) ===="
  # The release lane's compile_commands.json drives the tidy pass.
  cmake -B build-check/release -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find src -name '*.cc' -print0 |
    xargs -0 -P "${jobs}" -n 4 clang-tidy -p build-check/release --quiet \
      --warnings-as-errors='*'
else
  echo "==== clang-tidy not installed; skipping tidy lane ===="
fi

echo "==== all checks passed ===="
