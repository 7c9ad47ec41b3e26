#!/usr/bin/env python3
"""Build and run the postal benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark executable is built from
source on first use into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). With --trace 0 set-up is measured in five
processes -- four that stop after set-up and the one that then measures the
passes -- and setup_s is their median. The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the benchmark; return the executable."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run(cmd):
    """Run the executable; return (its stdout lines, the parsed result line)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"perfbench exited {proc.returncode} without a result")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--broken", action="store_true", help="feed one corrupted input")
    parser.add_argument("--chrome-trace", help="with --trace 1: write the spans here")
    args = parser.parse_args()

    cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.broken:
        cmd.append("--broken")
    if args.chrome_trace:
        cmd += ["--chrome-trace", args.chrome_trace]

    setups = []
    attempted = failed = 0
    if args.trace == "0":
        for _ in range(SETUP_SAMPLES - 1):
            _, result = run(cmd + ["--setup-only"])
            setups.append(result["metrics"]["setup_s"]["value"])
            attempted += result["attempted"]
            failed += result["failed"]
    report, result = run(cmd)
    result["attempted"] += attempted
    result["failed"] += failed
    result["correct"] = result["correct"] and result["failed"] == 0
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report.append(f"  setup_s samples = {', '.join(f'{s:.6f}' for s in setups)} s")
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
