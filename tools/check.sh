#!/usr/bin/env bash
# Repo verification pipeline:
#   1. tier 1         -- default (Release) configure/build/ctest, which also
#                        runs udao_lint over src/
#   2. kernel parity  -- tools/kernel_parity.sh scalar, then avx2, over the
#                        tier-1 build: the numeric-contract suites with
#                        UDAO_KERNEL pinned to each backend (CI's
#                        kernel-parity job runs the same script). The avx2
#                        leg is skipped with a notice on a CPU without
#                        AVX2+FMA.
#   3. perfbench      -- python3 perfbench/test_perfbench.py: builds the
#                        serving benchmark against src/ (it compiles against
#                        UdaoService, Udao::Recommend and UdaoRecommendation)
#                        and runs every workload briefly, untraced and traced
#   4. metrics off    -- the suite with -DUDAO_METRICS=OFF -DUDAO_WERROR=ON:
#                        instrumentation compiled out, stats() and every
#                        request path still tested
#   5. ASan+UBSan     -- the suite under -DCMAKE_BUILD_TYPE=Asan
#   6. TSan           -- the suite under -DCMAKE_BUILD_TYPE=Tsan (includes
#                        race_stress_test, which hammers ThreadPool,
#                        concurrent SolveBatch, and concurrent ModelServer
#                        lookups)
#   7. UBSan (strict) -- the suite under -DCMAKE_BUILD_TYPE=Ubsan:
#                        -fsanitize=undefined,float-divide-by-zero with
#                        -fno-sanitize-recover=all, so the first report
#                        aborts the test. Stricter than the Asan combo
#                        (float-divide-by-zero is not on there, and reports
#                        there recover). Also run nightly.
#   8. thread-safety  -- clang build of src/ with -Werror=thread-safety
#                        (-DUDAO_THREAD_SAFETY=ON) checking every
#                        GUARDED_BY / REQUIRES annotation in
#                        src/common/sync.h users, plus the compile-failure
#                        fixtures (tests/thread_safety_fixtures/) proving
#                        the gate can fire. Skipped with a notice when
#                        clang++ is not installed (GCC has no such
#                        analysis); CI always runs it.
#   9. clang-tidy     -- tools/tidy.sh (skipped automatically when
#                        clang-tidy is not installed)
#
# Not a stage: tools/same_bits.sh <base-ref> [seconds] checks that a change
# serves the same bits as a base commit. It builds perfbench at <base-ref>
# (from a git archive) and in the working tree, runs cold_solve seeds 1-3
# under UDAO_KERNEL=avx2 and scalar, fails when a run keeps fewer than 16
# frontiers, and compares the digests pair by pair.
#
# Usage: tools/check.sh [--tier1-only | --help]
set -euo pipefail

if [[ "${1:-}" == "--help" || "${1:-}" == "-h" ]]; then
  sed -n '2,/^# Usage:/p' "$0" | sed 's/^# \{0,1\}//'
  exit 0
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

echo "== tier 1: default build + tests =="
# -DUDAO_WERROR=ON matches the CI tier-1 job, so local check.sh runs catch
# new warnings before a push does.
cmake -B build -S . -DUDAO_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j

if [[ "${1:-}" == "--tier1-only" ]]; then
  exit 0
fi

echo "== kernel parity: numeric suites per backend =="
tools/kernel_parity.sh scalar build
if grep -qw avx2 /proc/cpuinfo 2>/dev/null &&
   grep -qw fma /proc/cpuinfo 2>/dev/null; then
  tools/kernel_parity.sh avx2 build
else
  echo "tools/check.sh: this CPU lacks AVX2+FMA; skipping the avx2 kernel" \
       "parity leg (CI's kernel-parity job runs it)"
fi

echo "== perfbench: benchmark self-test =="
python3 perfbench/test_perfbench.py

echo "== metrics off: -DUDAO_METRICS=OFF build + tests =="
cmake -B build-metrics-off -S . -DUDAO_METRICS=OFF -DUDAO_WERROR=ON
cmake --build build-metrics-off -j
ctest --test-dir build-metrics-off --output-on-failure -j

echo "== sanitizers: ASan+UBSan build + tests =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Asan
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j

echo "== sanitizers: TSan build + tests =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Tsan
cmake --build build-tsan -j
# TSAN_OPTIONS makes any report fail the run even if the test binary would
# otherwise exit 0; the suppression file mutes a known libstdc++
# atomic<shared_ptr> false positive (see tools/tsan.supp).
TSAN_OPTIONS="halt_on_error=1 suppressions=$repo_root/tools/tsan.supp" \
  ctest --test-dir build-tsan --output-on-failure -j

echo "== sanitizers: strict UBSan build + tests =="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=Ubsan
cmake --build build-ubsan -j
ctest --test-dir build-ubsan --output-on-failure -j

echo "== thread-safety: clang -Werror=thread-safety =="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-thread-safety -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DUDAO_THREAD_SAFETY=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build-thread-safety -j
  # The fixture tests assert that seeded violations are rejected; the build
  # above asserts that real sources are not.
  ctest --test-dir build-thread-safety -R '^tsa_fixture_' \
    --output-on-failure -j
else
  echo "tools/check.sh: clang++ not found on PATH; skipping thread-safety" \
       "analysis (GCC has none -- install LLVM or rely on the CI job)"
fi

echo "== clang-tidy =="
tools/tidy.sh

echo "all checks passed"
