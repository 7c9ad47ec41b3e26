#!/usr/bin/env python3
"""Compare fresh bench records against the committed perf trajectory.

Reads a freshly generated BENCH_postal.json (one record per line, schema:
docs/OBSERVABILITY.md) and every baseline file in the trajectory directory
(bench/trajectory/*.json), matching records by bench name. Two classes of
finding, with deliberately different severity (bench/trajectory/README.md):

  * verdict regression -- the baseline verdict is clean but the fresh one
    is MISMATCH or FAIL. Always a hard failure (exit 1): verdicts are
    correctness-gated by the benches themselves and machine-independent.
  * perf drift -- wall_ms (or an extra key ending in _ms) grew, or an
    extra key ending in _per_sec shrank, by more than --tolerance x.
    Printed as a warning; exits 1 only under --strict. The default
    tolerance is generous on purpose: trajectory numbers are snapshots of
    whatever box committed them, and CI machines vary wildly.
  * guarded-metric floor -- a metric in GUARDED_METRICS (currently the
    ParMachine bcast_1m speedup at 4 lanes) fell below its floor in the
    *fresh* record. Hard failure only when the fresh record's threads_hw
    shows the runner actually has the cores to demonstrate it (>= the
    lane count); on smaller machines (where lanes time-slice one core and
    a speedup is physically impossible) it demotes to a warning. The
    message quotes the record's `load1` extra (the host's load average
    when the bench started) when there is one: a floor missed on a busy
    host is load, not a regression. The rule itself does not read it.
  * guarded-metric ceiling -- a metric in CEILING_METRICS (currently the
    bytes per rank a 2-lane ParMachine keeps after a bcast_1m run) rose
    above its ceiling in the *fresh* record. Always a hard failure: bytes
    do not depend on the core count, so threads_hw plays no part.
"""
import argparse
import glob
import json
import os
import sys

BAD_VERDICTS = {"MISMATCH", "FAIL"}

# (bench, extra key) -> (floor, hw threads needed to enforce it hard).
GUARDED_METRICS = {
    ("bench_par_machine", "bcast_1m_t4_speedup"): (1.0, 4),
    ("bench_par_machine", "bcast_1m_t2_speedup"): (0.9, 2),
}


# (bench, extra key) -> ceiling, enforced on every runner.
CEILING_METRICS = {
    ("bench_par_machine", "bcast_1m_t2_arena_bytes_per_rank"): 100.0,
}


def ceiling_findings(fresh_by_bench):
    """Yield a message for each ceiling metric above its ceiling."""
    for (bench, key), ceiling in CEILING_METRICS.items():
        rec = fresh_by_bench.get(bench)
        if rec is None:
            continue
        value = numeric(rec.get("extra", {}).get(key))
        if value is not None and value > ceiling:
            yield (f"{bench}.extra.{key}: {value:g} above ceiling "
                   f"{ceiling:g} (enforced on every runner)")


def guarded_findings(fresh_by_bench):
    """Yield (message, hard) for guarded metrics below their floor."""
    for (bench, key), (floor, hw_needed) in GUARDED_METRICS.items():
        rec = fresh_by_bench.get(bench)
        if rec is None:
            continue
        value = numeric(rec.get("extra", {}).get(key))
        if value is None or value >= floor:
            continue
        threads_hw = numeric(rec.get("threads_hw")) or 0
        hard = threads_hw >= hw_needed
        load1 = numeric(rec.get("extra", {}).get("load1"))
        load = "" if load1 is None else f", load1={load1:g} at start"
        yield (f"{bench}.extra.{key}: {value:g} below floor {floor:g} "
               f"(threads_hw={threads_hw:g}{load}, "
               f"{'enforced' if hard else f'needs >= {hw_needed} cores'})",
               hard)


def load_records(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                print(f"error: unparseable record in {path}: {line!r} ({exc})",
                      file=sys.stderr)
                sys.exit(1)
    return records


def numeric(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def drift_findings(base, fresh, tolerance):
    """Yield (field, baseline, fresh, ratio) for out-of-tolerance drift."""
    pairs = [("wall_ms", numeric(base.get("wall_ms")),
              numeric(fresh.get("wall_ms")), False)]
    base_extra = base.get("extra", {})
    fresh_extra = fresh.get("extra", {})
    for key, base_value in base_extra.items():
        if key.endswith("_ms"):
            pairs.append((f"extra.{key}", numeric(base_value),
                          numeric(fresh_extra.get(key)), False))
        elif key.endswith("_per_sec"):
            pairs.append((f"extra.{key}", numeric(base_value),
                          numeric(fresh_extra.get(key)), True))
    for field, base_value, fresh_value, higher_is_better in pairs:
        if not base_value or not fresh_value:
            continue  # missing, zero, or non-numeric: nothing to compare
        ratio = (base_value / fresh_value if higher_is_better
                 else fresh_value / base_value)
        if ratio > tolerance:
            yield field, base_value, fresh_value, ratio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly generated record file")
    parser.add_argument("--baseline-dir",
                        default=os.path.join(os.path.dirname(
                            os.path.abspath(__file__)), "..", "bench",
                            "trajectory"),
                        help="directory of committed baseline record files")
    parser.add_argument("--tolerance", type=float, default=4.0,
                        help="allowed drift factor before a warning "
                             "(default: 4.0)")
    parser.add_argument("--strict", action="store_true",
                        help="treat perf drift as a failure, not a warning")
    args = parser.parse_args()

    fresh_by_bench = {}
    for rec in load_records(args.fresh):
        # Last record per bench wins; benches emit one record per run.
        fresh_by_bench[rec.get("bench")] = rec

    baselines = sorted(glob.glob(os.path.join(args.baseline_dir, "*.json")))
    if not baselines:
        print(f"error: no baseline files in {args.baseline_dir}",
              file=sys.stderr)
        return 1

    regressions = []
    drifts = []
    compared = 0
    baselined = set()
    for path in baselines:
        for base in load_records(path):
            name = base.get("bench")
            baselined.add(name)
            fresh = fresh_by_bench.get(name)
            if fresh is None:
                continue  # bench not run this time; the --expect gate owns that
            compared += 1
            base_verdict = str(base.get("verdict", ""))
            fresh_verdict = str(fresh.get("verdict", ""))
            if base_verdict not in BAD_VERDICTS and fresh_verdict in BAD_VERDICTS:
                regressions.append(
                    f"{name}: verdict regressed from "
                    f"{base_verdict!r} to {fresh_verdict!r}")
            for field, base_value, fresh_value, ratio in drift_findings(
                    base, fresh, args.tolerance):
                drifts.append(
                    f"{name}.{field}: {base_value:g} -> {fresh_value:g} "
                    f"({ratio:.2f}x worse, tolerance {args.tolerance:g}x)")

    # A fresh bench with no committed baseline is a coverage gap, not an
    # error: the first landing of a new bench warns here until its
    # trajectory file is committed (bench/trajectory/README.md). A silent
    # skip would read as "compared" when nothing was.
    for name in sorted(set(fresh_by_bench) - baselined):
        drifts.append(f"{name}: no committed baseline in "
                      f"{args.baseline_dir}; commit one to track drift")

    for message, hard in guarded_findings(fresh_by_bench):
        if hard:
            regressions.append(message)
        else:
            drifts.append(message)
    regressions.extend(ceiling_findings(fresh_by_bench))

    for line in regressions:
        print(f"REGRESSION: {line}", file=sys.stderr)
    for line in drifts:
        print(f"warning: perf drift: {line}", file=sys.stderr)

    print(f"compared {compared} bench(es) against "
          f"{len(baselines)} baseline file(s): "
          f"{len(regressions)} verdict regression(s), "
          f"{len(drifts)} perf drift warning(s)")
    if regressions:
        return 1
    if drifts and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
