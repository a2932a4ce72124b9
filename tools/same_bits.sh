#!/usr/bin/env bash
# Checks that the working tree serves the same bits as a base commit. It
# builds perfbench (through perfbench/run.py) from a `git archive` of
# <base-ref> and from the working tree, runs cold_solve for seeds 1-3 under
# UDAO_KERNEL=avx2 and UDAO_KERNEL=scalar in each, and compares the frontier
# digests pair by pair. It fails when a digest differs, when a run reports
# itself incorrect, or when a run keeps fewer than 16 frontiers: such a
# digest covers only what the timed phase served, so it depends on speed
# (pass more seconds). The avx2 leg is skipped with a notice on a CPU
# without AVX2+FMA. The base build lives in a temporary directory that is
# removed on exit; the working tree's build is .bench_build/.
#
# Usage: tools/same_bits.sh <base-ref> [seconds per run (default 5)]
set -euo pipefail

base_ref="${1:-}"
seconds="${2:-5}"
if [[ -z "$base_ref" || "$base_ref" == "-h" || "$base_ref" == "--help" ]]; then
  sed -n '2,/^# Usage:/p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
base_sha="$(git rev-parse --verify "${base_ref}^{commit}")"
base_dir="$(mktemp -d "${TMPDIR:-/tmp}/udao-same-bits.XXXXXX")"
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_sha" | tar -x -C "$base_dir/"
log="$base_dir/runs.log"

kernels=(avx2 scalar)
if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null ||
   ! grep -qw fma /proc/cpuinfo 2>/dev/null; then
  echo "tools/same_bits.sh: this CPU lacks AVX2+FMA; comparing scalar only"
  kernels=(scalar)
fi

# Prints "<digest> <frontiers> <correct>" for one cold_solve run of a tree.
run_digest() {
  local tree="$1" kernel="$2" seed="$3" out
  if ! out="$(cd "$tree" && UDAO_KERNEL="$kernel" python3 perfbench/run.py \
                --workload cold_solve --seed "$seed" --seconds "$seconds" \
                --trace 0 2>>"$log")"; then
    echo "tools/same_bits.sh: perfbench failed in $tree; log tail:" >&2
    tail -n 20 "$log" >&2
    exit 1
  fi
  # "digest <hex> over the first <count> frontiers; ..."
  local fields correct=false
  fields="$(awk '/^digest /{print $2, $6}' <<<"$out")"
  if tail -n 1 <<<"$out" | grep -q '"correct": true'; then correct=true; fi
  echo "${fields:-none 0} $correct"
}

echo "base ${base_sha:0:12} ($base_ref) vs the working tree;" \
     "cold_solve, ${seconds} s per run"
printf '%-7s %-5s %-26s %-26s %s\n' kernel seed base working result
status=0
for kernel in "${kernels[@]}"; do
  for seed in 1 2 3; do
    # Command substitution, so a failed run stops the script (set -e).
    base_run="$(run_digest "$base_dir" "$kernel" "$seed")"
    work_run="$(run_digest "$repo_root" "$kernel" "$seed")"
    read -r b_digest b_count b_ok <<<"$base_run"
    read -r w_digest w_count w_ok <<<"$work_run"
    result=same
    if [[ "$b_digest" != "$w_digest" ]]; then result=DIFFERENT; fi
    if (( b_count < 16 || w_count < 16 )); then
      result="$result, FEWER THAN 16 FRONTIERS"
    fi
    if [[ "$b_ok" != true || "$w_ok" != true ]]; then
      result="$result, RUN INCORRECT"
    fi
    [[ "$result" == same ]] || status=1
    printf '%-7s %-5s %-26s %-26s %s\n' "$kernel" "$seed" \
           "$b_digest ($b_count)" "$w_digest ($w_count)" "$result"
  done
done
exit "$status"
