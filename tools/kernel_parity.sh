#!/usr/bin/env bash
# Runs the numeric-contract suites with UDAO_KERNEL pinned to one kernel
# backend, so the scalar reference kernels and the AVX2 kernels are both
# checked whatever the CPU would auto-select:
#
#   kernel_parity_test  within-backend bitwise kernel contracts, cross-backend
#                       tolerance, the adam entry bitwise across backends,
#                       the UDAO_KERNEL contract, the arena
#   batch_eval_test     batched model calls == per-row calls, and lockstep
#                       MOGD == tests/mogd_reference.h, bitwise
#   nn_test             batched MLP passes == tests/mlp_reference.h, and
#                       TrainMlp, MlpModel::Fit and FineTune == its
#                       flatten-and-restore trainer, bitwise
#   determinism_test    2- vs 8-thread Udao::Optimize, bitwise
#   mogd_test           MOGD solves: seeded repeats and batch == sequential,
#                       bitwise; agreement with exhaustive search
#   adaptive_test       per-stage confs across thread counts and backends
#   coalescer_test      fused == solo MOGD solves, bitwise
#
# This list is the only copy: CI's kernel-parity job and tools/check.sh both
# call this script. It builds the suites in the given build tree (configured
# already) and runs them there. UDAO_KERNEL=avx2 aborts on a CPU without
# AVX2+FMA, so an avx2 run there fails; tools/check.sh skips that leg first.
#
# Usage: tools/kernel_parity.sh <scalar|avx2> [build-dir (default: build)]
set -euo pipefail

suites=(kernel_parity_test batch_eval_test nn_test determinism_test
        mogd_test adaptive_test coalescer_test)

backend="${1:-}"
build_dir="${2:-build}"
if [[ "$backend" != "scalar" && "$backend" != "avx2" ]]; then
  sed -n '2,/^# Usage:/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

cmake --build "$build_dir" -j --target "${suites[@]}"
pattern="^($(IFS='|'; echo "${suites[*]}"))\$"
UDAO_KERNEL="$backend" ctest --test-dir "$build_dir" -R "$pattern" \
  --output-on-failure -j
