#!/usr/bin/env python3
"""Builds and runs the UDAO serving benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads (closed loop: every client waits for its answer before sending the
next request):

  cold_solve   1 client; every request is a new cache key (a latency bound
               drawn from the feasible range) over three trained TPCx-BB jobs.
               Stresses kernels, batched model evaluation, MOGD/PF and the
               coalescer's single-submission windows; bypasses cache hits.
  warm_repeat  2 clients send weight, policy and densify variations against
               primed frontiers, so every request is a cache hit. Stresses the
               serving lookup and memo, Recommend and registry emission; runs
               no solver (kernel changes should not move it).
  tenant_mix   4 clients send concurrent misses for tenants that share models
               but differ in latency SLO; every 4th request asks for
               stage-level tuning and every 2nd is followed by a fresh
               simulator trace ingest, which bumps model generations and arms
               fine-tunes paid inside later requests.

The program is built from ../src into .bench_build/perfbench at the checkout
root (first run only). The binary prints one `metric <name> <value> <unit>
n=<samples>` line per metric and, last, one JSON object; this wrapper passes
both through and additionally checks that cold_solve's frontier digest for a
seed repeats across runs of the same build.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "udao_perfbench")
DIGESTS = os.path.join(BUILD, "digests.json")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("UDAO sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "udao_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return BINARY


def check_digest(lines, workload, seed, tiny):
    """True unless this seed's cold_solve digest differs from an earlier run
    of the same binary."""
    header = next((l for l in lines if l.startswith("udao_perfbench ")), "")
    kernel = next((f.split("=", 1)[1] for f in header.split()
                   if f.startswith("kernel=")), "?")
    digest = next((l.split() for l in lines if l.startswith("digest ")), None)
    if digest is None:
        return workload != "cold_solve"
    # digest line: "digest <hex> over the first <count> frontiers; ..."
    size = "tiny" if tiny else "full"
    with open(BINARY, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{build_id}:{workload}:{seed}:{kernel}:{size}:{digest[5]}"
    seen = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            seen = json.load(f)
    if key in seen:
        same = seen[key] == digest[1]
        print(f"digest check: {'repeats' if same else 'DIFFERS FROM'} the "
              f"earlier run of seed {seed} ({seen[key]})")
        return same
    seen[key] = digest[1]
    with open(DIGESTS, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["cold_solve", "warm_repeat", "tenant_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small set-up, for the benchmark's self-test")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not check_digest(lines, args.workload, args.seed, args.tiny):
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
