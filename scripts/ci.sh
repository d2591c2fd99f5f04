#!/usr/bin/env bash
# Full local CI pipeline: configure -> build -> unit tests -> static
# analysis. Tools missing from the container (clang-tidy, cppcheck) are
# skipped with a notice; everything available must pass.
#
# Usage: scripts/ci.sh [build-dir]   (default: build-ci)
set -euo pipefail

SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-${SOURCE_DIR}/build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

step() { echo; echo "==== $* ===="; }

step "configure (${BUILD_DIR})"
cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=Release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

step "build"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

step "ctest (unit + schema tests, auto-selected kernel ISA)"
(cd "${BUILD_DIR}" && ctest --output-on-failure -LE lint -j "${JOBS}")

step "ctest under RGAE_KERNEL=scalar (kernel reference tier)"
# The full suite re-runs with every kernel stub pinned to its scalar
# reference implementation: golden numbers and behaviour must not depend on
# which SIMD tier the host machine happens to support (DESIGN.md §9).
(cd "${BUILD_DIR}" && RGAE_KERNEL=scalar \
  ctest --output-on-failure -LE lint -j "${JOBS}")

step "ctest -L lint (registered lint cases)"
(cd "${BUILD_DIR}" && ctest --output-on-failure -L lint)

step "ctest -L concurrency under lockcheck (RGAE_LOCKCHECK=abort)"
# The serve and lockcheck suites re-run with the runtime lock-order checker
# armed in fatal mode: any inversion or re-entrant acquisition aborts the
# test binary.
# Seeded-violation tests disarm fatality themselves via SetLockCheckFatal.
(cd "${BUILD_DIR}" && RGAE_LOCKCHECK=abort \
  ctest --output-on-failure -L concurrency -j "${JOBS}")

step "asserts-on build and ctest (Debug, -O1)"
# Every other configuration defines NDEBUG (Release pins -O2 -DNDEBUG and
# the sanitizer preset is RelWithDebInfo), so this is the one place the
# code's assert() preconditions run. -O1 keeps the suite's training-heavy
# cases affordable.
cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}-assert" \
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g"
cmake --build "${BUILD_DIR}-assert" -j "${JOBS}"
(cd "${BUILD_DIR}-assert" && ctest --output-on-failure -LE lint -j "${JOBS}")

step "thread-safety analysis build (clang -Wthread-safety)"
if command -v clang++ >/dev/null 2>&1; then
  cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}-tsa" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_COMPILER=clang++ -DRGAE_TSA=ON
  cmake --build "${BUILD_DIR}-tsa" -j "${JOBS}"
else
  echo "clang++ not installed; TSA build skipped"
fi

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  "${SOURCE_DIR}/scripts/run_clang_tidy.sh" clang-tidy "${BUILD_DIR}" \
    "${SOURCE_DIR}"
else
  echo "clang-tidy not installed; skipped"
fi

step "cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --quiet --error-exitcode=1 \
    --enable=warning,performance,portability \
    --suppressions-list="${SOURCE_DIR}/.cppcheck-suppressions" \
    --inline-suppr -I "${SOURCE_DIR}" "${SOURCE_DIR}/src"
else
  echo "cppcheck not installed; skipped"
fi

step "rgae_lint"
python3 "${SOURCE_DIR}/scripts/rgae_lint.py" --root "${SOURCE_DIR}"

step "bench JSON schema check"
python3 "${SOURCE_DIR}/scripts/check_bench_json.py" \
  --run "${BUILD_DIR}/bench/bench_micro_ops" \
  --benchmark_filter=/200 --benchmark_min_time=0.05

step "loadtest JSON schema check (overload drill)"
RGAE_LOADTEST_SECONDS=0.5 RGAE_LOADTEST_QPS=400,1600,6400 \
RGAE_LOADTEST_QUEUE=48 RGAE_LOADTEST_DEADLINE_MS=8 RGAE_LOADTEST_SLO_MS=4 \
python3 "${SOURCE_DIR}/scripts/check_bench_json.py" \
  --run-loadtest "${BUILD_DIR}/bench/bench_loadtest"

step "profile schema check (calling-context tree + FLOP exactness)"
python3 "${SOURCE_DIR}/scripts/check_bench_json.py" \
  --run-profile "${BUILD_DIR}/bench/bench_micro_ops" \
  --benchmark_filter=/200 --benchmark_min_time=0.05

step "bench baselines (advisory: exact metrics + coverage vs committed)"
# Wall-clock bands are machine-dependent, so CI compares in advisory mode:
# FLOP counts and metric coverage are hard failures, timing bands warn.
# The committed baselines were seeded under this exact environment.
PROFILE_REPORT="$(mktemp)"
trap 'rm -f "${PROFILE_REPORT}"' EXIT
"${BUILD_DIR}/bench/bench_micro_ops" --json="${PROFILE_REPORT}" \
  --benchmark_filter=BM_SpMM/200 --benchmark_min_time=0.05 >/dev/null
python3 "${SOURCE_DIR}/scripts/compare_bench.py" "${PROFILE_REPORT}" \
  "${SOURCE_DIR}/bench/baselines/micro_ops.json" --timing-advisory
RGAE_SERVE_QUERIES=1200 \
  "${BUILD_DIR}/bench/bench_serve" --json="${PROFILE_REPORT}" >/dev/null
python3 "${SOURCE_DIR}/scripts/compare_bench.py" "${PROFILE_REPORT}" \
  "${SOURCE_DIR}/bench/baselines/serve.json" --timing-advisory
RGAE_TRIALS=1 RGAE_EPOCH_SCALE=0.02 \
  "${BUILD_DIR}/bench/bench_table5_runtime" --json="${PROFILE_REPORT}" \
  >/dev/null
python3 "${SOURCE_DIR}/scripts/compare_bench.py" "${PROFILE_REPORT}" \
  "${SOURCE_DIR}/bench/baselines/table5_runtime.json" --timing-advisory

step "perfbench output checks (recorded ACCs, served embeddings)"
# Each run compares every trial's ACC with perfbench/expected_acc.json and
# the final served embeddings with a full forward pass; run.py exits
# non-zero when either check fails, so a change that moves training bits
# fails here. Builds into .bench_build/ on first use.
for workload in train_scale table_suite serve_mutate; do
  (cd "${SOURCE_DIR}" && python3 perfbench/run.py --workload "${workload}" \
    --seed 1 --seconds 10 --trace 0)
done

echo
echo "CI pipeline passed."
