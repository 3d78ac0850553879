#!/bin/sh
# tools/check.sh — continuous static/dynamic analysis driver.
#
#   tools/check.sh [release] [sanitize] [tsan] [tidy] [threadsafety]
#                  [lockorder] [fault] [frontend]
#
# With no arguments all eight stages run:
#   release   Release build with -Werror (TMM_WERROR=ON) + full ctest.
#   sanitize  ASan+UBSan build (TMM_SANITIZE=address,undefined) + full
#             ctest; any sanitizer report fails the test.
#   tsan      TSan build (TMM_SANITIZE=thread) + the multi-threaded
#             incremental TS equivalence tests (the per-worker scratch
#             graph / engine reuse is the racy-by-construction surface),
#             the parallel STA + task-pool suites (levelized workers
#             over the shared SoA store, tests/test_sta_parallel.cpp,
#             plus the StaGolden fingerprints at 4 threads), the
#             sample-parallel GNN training tests (GnnGolden weights at
#             1/2/4 threads, GnnParallel thread invariance)
#             and the serving-engine concurrency tests (shared registry
#             + sharded cache + socket server, tests/test_serve.cpp).
#   tidy      clang-tidy over src/ using the repo .clang-tidy config
#             (skipped with a notice when clang-tidy is not installed).
#             TIDY_BASE=<git-ref> restricts it to files changed since
#             that ref (used by CI on pull requests).
#   threadsafety
#             Clang build with -Werror=thread-safety over the
#             TMM_GUARDED_BY/TMM_REQUIRES annotations
#             (src/util/thread_annotations.hpp; skipped with a notice
#             when clang++ is not installed — GCC has no capability
#             analysis).
#   lockorder Debug build with the lock-order analyzer compiled into
#             util::Mutex (-DTMM_LOCKORDER=ON), running the analyzer
#             tests plus the concurrent serve/obs/fault suites, then
#             `tmm lint --concurrency` as the acyclic-hierarchy gate.
#   fault     Deterministic fault-injection matrix (tools/fault_matrix.sh):
#             every registered TMM_FAULT site is armed in throw mode
#             (clean skip-with-diagnostic, no torn files) and the
#             persistence sites in kill mode (SIGKILL + bit-identical
#             resume).
#   frontend  Real-circuit frontend smoke (tools/frontend_smoke.sh):
#             every examples/blif circuit imported (byte-identical
#             re-import), linted, timed, run through the flow, packed
#             and served bit-identically, plus the import-throughput
#             bench emitting BENCH_frontend.json.
#
# Build trees live in build-check-* so the developer build/ is never
# clobbered. Exit code is non-zero as soon as any stage fails.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
JOBS=$(nproc 2>/dev/null || echo 4)

run_release() {
  echo "== check: release (-Werror) =="
  cmake -S "$ROOT" -B "$ROOT/build-check-release" \
    -DCMAKE_BUILD_TYPE=Release -DTMM_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build "$ROOT/build-check-release" -j"$JOBS"
  ctest --test-dir "$ROOT/build-check-release" --output-on-failure -j"$JOBS"
}

run_sanitize() {
  echo "== check: ASan+UBSan =="
  cmake -S "$ROOT" -B "$ROOT/build-check-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTMM_WERROR=ON \
    -DTMM_SANITIZE=address,undefined >/dev/null
  cmake --build "$ROOT/build-check-asan" -j"$JOBS"
  # halt_on_error turns any UBSan finding into a test failure instead of
  # a log line; leak checking needs ptrace and is unavailable in some
  # containers, so tolerate LSan being absent.
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
  ctest --test-dir "$ROOT/build-check-asan" --output-on-failure -j"$JOBS"
}

run_tsan() {
  echo "== check: TSan (parallel STA + incremental TS loop + GNN training + macro generation + serving engine) =="
  cmake -S "$ROOT" -B "$ROOT/build-check-tsan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTMM_WERROR=ON \
    -DTMM_SANITIZE=thread >/dev/null
  cmake --build "$ROOT/build-check-tsan" -j"$JOBS" --target tmm_tests
  TSAN_OPTIONS="halt_on_error=1" \
  "$ROOT/build-check-tsan/tests/tmm_tests" \
    --gtest_filter='StaIncremental.*:StaParallel.*:StaGolden.*:GnnGolden.*:GnnParallel.*:TaskPool.*:MergeDelta.*:TsIncremental.*:TsParallel.*:TsIsolation.*:MergeParallel.*:EvaluateParallel.*:ModelSizeParallel.*:FlowTest.RunDesignStageTimingsAreTheRootSpansChildren:Server.*:ServeClient.*:ResultCache.*:Evaluator.*:FlightRecorder.*:SlidingWindow.*:ServeAdmin.*:Reload.*'
}

run_tidy() {
  echo "== check: clang-tidy =="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed — skipping the tidy stage"
    return 0
  fi
  # Reuse (or create) the release tree's compilation database.
  if [ ! -f "$ROOT/build-check-release/compile_commands.json" ]; then
    cmake -S "$ROOT" -B "$ROOT/build-check-release" \
      -DCMAKE_BUILD_TYPE=Release -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  if [ -n "${TIDY_BASE:-}" ]; then
    files=$(cd "$ROOT" && git diff --name-only "$TIDY_BASE" -- 'src/*.cpp' \
              'src/**/*.cpp' | sed "s|^|$ROOT/|" | sort -u)
  else
    files=$(find "$ROOT/src" -name '*.cpp' | sort)
  fi
  if [ -z "$files" ]; then
    echo "no source files to tidy"
    return 0
  fi
  echo "$files" | xargs -P "$JOBS" -n 1 \
    clang-tidy -p "$ROOT/build-check-release" --quiet
}

run_threadsafety() {
  echo "== check: clang thread-safety analysis =="
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed — skipping the thread-safety stage"
    return 0
  fi
  cmake -S "$ROOT" -B "$ROOT/build-check-threadsafety" \
    -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_BUILD_TYPE=Release \
    -DTMM_THREAD_SAFETY=ON >/dev/null
  cmake --build "$ROOT/build-check-threadsafety" -j"$JOBS"
}

run_lockorder() {
  echo "== check: lock-order analyzer (Debug, tracking on) =="
  cmake -S "$ROOT" -B "$ROOT/build-check-lockorder" \
    -DCMAKE_BUILD_TYPE=Debug -DTMM_LOCKORDER=ON >/dev/null
  cmake --build "$ROOT/build-check-lockorder" -j"$JOBS" \
    --target tmm_tests tmm
  # Analyzer semantics plus the concurrent subsystems under live
  # acquisition tracking: any ordering violation a test provokes in
  # real mutexes fails the suite (the deliberate inversions in
  # LockOrder.* reset their observations).
  "$ROOT/build-check-lockorder/tests/tmm_tests" \
    --gtest_filter='LockOrder.*:TaskPool*:StaParallel*:StaGolden*:MergeParallel*:EvaluateParallel*:ModelSizeParallel*:Server*:ServeClient*:ResultCache*:Evaluator*:Registry*:Reload*:Tmb*:Protocol*:Obs*:Fault*:ServeLint*:ServeStats*:ServeAdmin*:FlightRecorder*:SlidingWindow*:LatencyBuckets*'
  # Self-audit gate: dump the registered lock hierarchy and fail on any
  # cycle (exit 3).
  "$ROOT/build-check-lockorder/tools/tmm" lint --concurrency
}

run_fault() {
  echo "== check: fault-injection matrix =="
  # Reuse (or create) the release tree; the tmm binary drives the
  # matrix and serve_loadgen verifies the hot-reload rollback block.
  cmake -S "$ROOT" -B "$ROOT/build-check-release" \
    -DCMAKE_BUILD_TYPE=Release -DTMM_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build "$ROOT/build-check-release" -j"$JOBS" --target tmm serve_loadgen
  sh "$ROOT/tools/fault_matrix.sh" "$ROOT/build-check-release/tools/tmm" \
    "$ROOT/build-check-release/tools/serve_loadgen"
}

run_frontend() {
  echo "== check: real-circuit frontend smoke =="
  cmake -S "$ROOT" -B "$ROOT/build-check-release" \
    -DCMAKE_BUILD_TYPE=Release -DTMM_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  cmake --build "$ROOT/build-check-release" -j"$JOBS" \
    --target tmm serve_loadgen bench_frontend
  sh "$ROOT/tools/frontend_smoke.sh" "$ROOT/build-check-release/tools/tmm" \
    "$ROOT/build-check-release/tools/serve_loadgen"
  # Import-throughput bench with machine-readable output (scaled down).
  bench_dir="$(mktemp -d)"
  ( cd "$bench_dir" && TMM_TEST_SCALE=10 \
      "$ROOT/build-check-release/bench/bench_frontend" )
  test -s "$bench_dir/BENCH_frontend.json"
  rm -rf "$bench_dir"
}

stages="${*:-release sanitize tsan tidy threadsafety lockorder fault frontend}"
for stage in $stages; do
  case "$stage" in
    release)      run_release ;;
    sanitize)     run_sanitize ;;
    tsan)         run_tsan ;;
    tidy)         run_tidy ;;
    threadsafety) run_threadsafety ;;
    lockorder)    run_lockorder ;;
    fault)        run_fault ;;
    frontend)     run_frontend ;;
    *) echo "unknown stage '$stage' (expected release|sanitize|tsan|tidy|threadsafety|lockorder|fault|frontend)" >&2
       exit 64 ;;
  esac
done
echo "CHECK_OK"
