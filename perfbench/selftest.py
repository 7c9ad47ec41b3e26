#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For all four workloads, including the two
that BENCHMARK.json does not time, a smoke-sized run with --trace 0 and
with --trace 1 must pass every correctness check and print each declared
metric exactly once, by name and with its declared unit, both in the
report lines and in the JSON result.
Then bcast_1m is fed one broken input -- a BCAST schedule with one send
moved by 1/q -- and must report failed checks and exit nonzero.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bcast_1m", "serve_1m", "variants", "chaos")


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--seed", "1",
                           "--seconds", "0.2", "--smoke"] + args,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            code, report, result = run(["--workload", workload, "--trace", trace])
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: failed checks (exit {code}, {result['failed']} failed)")
            if result["attempted"] < 1:
                problems.append(f"{where}: no checks attempted")
            units = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                missing = sorted(set(units) - set(got))
                extra = sorted(set(got) - set(units))
                wrong = sorted(n for n in units if n in got and got[n] != units[n])
                problems.append(f"{where}: metrics differ: missing {missing} extra {extra} "
                                f"wrong unit {wrong}")
            for name, unit in units.items():
                lines = [line for line in report if line.startswith(f"  {name} = ")]
                if len(lines) != 1 or not lines[0].endswith(f" {unit}"):
                    problems.append(f"{where}: report prints {name} {len(lines)} times")

    code, _, result = run(["--workload", "bcast_1m", "--trace", "0", "--broken"])
    if code == 0 or result["correct"] or result["failed"] == 0:
        problems.append("bcast_1m --broken: the moved send went unnoticed")

    for problem in problems:
        print(f"selftest: {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
