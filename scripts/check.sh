#!/usr/bin/env bash
# The one-shot pre-PR hygiene gate. Configures a warning-clean build
# (GB_WERROR=ON, plus clang-tidy via GB_TIDY=1 in the environment when
# installed), builds everything, and runs the full ctest suite — which
# includes `ctest -L lint`: the gb-lint fixture self-tests plus the
# zero-findings sweep over the real tree — then the bench smokes and the
# benchmark package's self-test. Exits nonzero on any finding.
#
#   scripts/check.sh                 # the documented pre-PR command
#   GB_TIDY=1 scripts/check.sh      # also run the clang-tidy profile
#   GB_SANITIZE=undefined scripts/check.sh   # one sanitizer-matrix entry
#
# The full matrix CI runs: (default), GB_SANITIZE=thread with
# -L concurrency, GB_SANITIZE=undefined, GB_SANITIZE=address,undefined.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-werror}"
JOBS="$(nproc 2>/dev/null || echo 2)"

CMAKE_ARGS=(-DGB_WERROR=ON)
if [[ -n "${GB_TIDY:-}" ]]; then
  CMAKE_ARGS+=(-DGB_TIDY=ON)
fi
if [[ -n "${GB_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=(-DGB_SANITIZE="${GB_SANITIZE}")
  BUILD_DIR="${BUILD_DIR}-${GB_SANITIZE//,/-}"
fi

echo "== configure (${CMAKE_ARGS[*]}) -> ${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"

echo "== build"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== gb_lint sweep (also enforced by ctest -L lint)"
"${BUILD_DIR}/tools/gb_lint" --workers "${JOBS}" src tests bench examples tools

echo "== gb_lint lock-graph sweep (cross-TU ordering + hold-and-block)"
# The concurrency rules alone, as their own gate: a zero here means the
# whole tree has one global lock order and every blocking-under-lock
# site carries a reviewed waiver.
"${BUILD_DIR}/tools/gb_lint" --workers "${JOBS}" \
  --only lock-order-cycle --only blocking-under-lock \
  --only unannotated-guarded-member \
  src tests bench examples tools

echo "== ctest (full suite, includes -L lint and -L incremental)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== bench_incremental smoke (table only; asserts rescan byte-identity)"
"${BUILD_DIR}/bench/bench_incremental" \
  --json "${BUILD_DIR}/bench_incremental.json" --benchmark_filter='^$'
if grep -q '"byte_identical":false' "${BUILD_DIR}/bench_incremental.json"; then
  echo "bench_incremental: session rescan diverged from the cold scan" >&2
  exit 1
fi

echo "== bench_carve smoke (table only; asserts parallel-sweep byte-identity)"
"${BUILD_DIR}/bench/bench_carve" \
  --json "${BUILD_DIR}/bench_carve.json" --benchmark_filter='^$'
if grep -q '"byte_identical":false' "${BUILD_DIR}/bench_carve.json"; then
  echo "bench_carve: parallel carve diverged from the serial sweep" >&2
  exit 1
fi

echo "== bench_daemon smoke (table only; asserts crash-safety invariants)"
"${BUILD_DIR}/bench/bench_daemon" \
  --json "${BUILD_DIR}/bench_daemon.json" --benchmark_filter='^$'
# Every scenario row must report exactly zero lost jobs.
if ! grep -q '"lost_jobs":0' "${BUILD_DIR}/bench_daemon.json" ||
   grep -o '"lost_jobs":[0-9]*' "${BUILD_DIR}/bench_daemon.json" |
     grep -qv '"lost_jobs":0$'; then
  echo "bench_daemon: a journaled job was lost across kill/restart" >&2
  exit 1
fi
if grep -q '"byte_identical":false' "${BUILD_DIR}/bench_daemon.json"; then
  echo "bench_daemon: replayed reports diverged from the uninterrupted run" >&2
  exit 1
fi

echo "== bench_obs smoke (table only; asserts telemetry overhead + byte-identity)"
"${BUILD_DIR}/bench/bench_obs" \
  --json "${BUILD_DIR}/bench_obs.json" --benchmark_filter='^$'
if grep -q '"byte_identical":false' "${BUILD_DIR}/bench_obs.json"; then
  echo "bench_obs: telemetry-on report diverged from telemetry-off" >&2
  exit 1
fi
if grep -q '"overhead_ok":false' "${BUILD_DIR}/bench_obs.json"; then
  echo "bench_obs: telemetry overhead exceeded the 3% budget" >&2
  exit 1
fi

echo "== gbbench self-test (the benchmark builds against the engine API)"
# gbbench is its own CMake package compiled against ScanEngine, JobSpec,
# ResourceScanner and OutsideSources, so an engine API change can break
# it while ctest stays green. --selftest builds it (into .bench_build/),
# proves every correctness check fires, and smoke-runs each workload.
python3 gbbench/run.py --selftest

echo "== thread-safety analysis (Clang -Wthread-safety over the annotations)"
if command -v clang++ >/dev/null 2>&1; then
  TS_BUILD_DIR="${BUILD_DIR}-threadsafety"
  cmake -B "${TS_BUILD_DIR}" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DGB_THREAD_SAFETY=ON
  cmake --build "${TS_BUILD_DIR}" -j "${JOBS}"
else
  echo "   clang++ not found; skipping (GB_GUARDED_BY/GB_REQUIRES compile"
  echo "   to no-ops elsewhere — install clang to run the analysis)"
fi

echo "== check.sh: all green"
