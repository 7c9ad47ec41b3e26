#!/usr/bin/env python3
"""Tests for the bench-record tooling in scripts/ (docs/OBSERVABILITY.md).

Covers validate_bench_records.py (the CI gate on BENCH_postal.json),
compare_sweep_records.py (the sweep determinism contract), and
compare_trajectory.py's guarded-metric floors (the threads_hw-keyed
ParMachine speedup gate): happy paths,
malformed JSON lines, missing stable keys, zero-record files, MISMATCH
verdicts, unmet --expect names, the --svc percentile-key contract on
service records (docs/SERVICE.md), thread-count and wall-time
normalization, and record-count mismatches. Standard-library unittest on purpose -- the
suite runs from ctest with the same python3 the build already requires.

Usage: python3 validator_scripts_test.py [--scripts-dir DIR]
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "scripts"))


def run_script(name, *args):
    """Run scripts/<name> with args; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS_DIR, name), *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def good_record(**overrides):
    rec = {"bench": "bench_demo", "n": 14, "lambda": "5/2",
           "makespan": "15/2", "wall_ms": 1.25, "verdict": "CONSISTENT",
           "threads_hw": 4,
           "extra": {"threads": "4", "point_ms": "0.5", "sends": "13"}}
    rec.update(overrides)
    return rec


class TempRecordFile:
    """Write JSONL records (or raw text) to a NamedTemporaryFile."""

    def __init__(self, records=None, raw=None):
        self.file = tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", delete=False, encoding="utf-8")
        if raw is not None:
            self.file.write(raw)
        else:
            for rec in records:
                self.file.write(json.dumps(rec) + "\n")
        self.file.close()
        self.path = self.file.name

    def __enter__(self):
        return self.path

    def __exit__(self, *exc):
        os.unlink(self.path)


class ValidateBenchRecordsTest(unittest.TestCase):
    def test_accepts_valid_records(self):
        with TempRecordFile([good_record(), good_record(bench="other")]) as path:
            code, out, err = run_script("validate_bench_records.py", path)
        self.assertEqual(code, 0, err)
        self.assertIn("2 valid record(s)", out)

    def test_rejects_missing_file(self):
        code, _, err = run_script("validate_bench_records.py",
                                  "/nonexistent/BENCH.json")
        self.assertEqual(code, 1)
        self.assertIn("cannot read", err)

    def test_rejects_zero_records(self):
        with TempRecordFile(raw="\n  \n") as path:
            code, _, err = run_script("validate_bench_records.py", path)
        self.assertEqual(code, 1)
        self.assertIn("zero bench records", err)

    def test_rejects_malformed_line(self):
        raw = json.dumps(good_record()) + "\n{not json}\n"
        with TempRecordFile(raw=raw) as path:
            code, _, err = run_script("validate_bench_records.py", path)
        self.assertEqual(code, 1)
        self.assertIn("unparseable record line", err)

    def test_rejects_missing_stable_key(self):
        for key in ("bench", "n", "lambda", "makespan", "wall_ms", "verdict",
                    "threads_hw"):
            rec = good_record()
            del rec[key]
            with TempRecordFile([rec]) as path:
                code, _, err = run_script("validate_bench_records.py", path)
            self.assertEqual(code, 1, f"missing {key} must be rejected")
            self.assertIn(f"missing key {key!r}", err)

    def test_rejects_mismatch_verdict(self):
        with TempRecordFile([good_record(verdict="MISMATCH")]) as path:
            code, _, err = run_script("validate_bench_records.py", path)
        self.assertEqual(code, 1)
        self.assertIn("MISMATCH", err)

    def test_expect_satisfied_and_unmet(self):
        with TempRecordFile([good_record(bench="bench_oracle")]) as path:
            code, _, err = run_script("validate_bench_records.py", path,
                                      "--expect", "bench_oracle")
            self.assertEqual(code, 0, err)
            code, _, err = run_script("validate_bench_records.py", path,
                                      "--expect", "bench_oracle",
                                      "--expect", "bench_absent")
        self.assertEqual(code, 1)
        self.assertIn("bench_absent", err)

    def svc_record(self, bench="bench_service", **extra_overrides):
        extra = {"p50": "309/16", "p99": "1231/16", "p999": "1567/16",
                 "throughput": "320000/5039263", "threads": "1"}
        extra.update(extra_overrides)
        extra = {k: v for k, v in extra.items() if v is not None}
        return good_record(bench=bench, verdict="CERTIFIED", extra=extra)

    def test_svc_accepts_records_with_percentile_keys(self):
        for bench in ("bench_service", "postal_cli_serve"):
            with TempRecordFile([self.svc_record(bench=bench)]) as path:
                code, _, err = run_script("validate_bench_records.py", path,
                                          "--svc")
            self.assertEqual(code, 0, f"{bench}: {err}")

    def test_svc_rejects_missing_percentile_keys(self):
        for key in ("p50", "p99", "p999", "throughput"):
            rec = self.svc_record(**{key: None})
            with TempRecordFile([rec]) as path:
                code, _, err = run_script("validate_bench_records.py", path,
                                          "--svc")
            self.assertEqual(code, 1, f"missing {key} must be rejected")
            self.assertIn(key, err)

    def test_svc_rejects_non_object_extra(self):
        rec = good_record(bench="postal_cli_serve", extra="p50=1")
        with TempRecordFile([rec]) as path:
            code, _, err = run_script("validate_bench_records.py", path,
                                      "--svc")
        self.assertEqual(code, 1)
        self.assertIn("extra object", err)

    def test_svc_requires_a_service_record(self):
        with TempRecordFile([good_record()]) as path:
            code, _, err = run_script("validate_bench_records.py", path,
                                      "--svc")
            self.assertEqual(code, 1)
            self.assertIn("no service record", err)
            # Without --svc the same file is fine: the contract is opt-in.
            code, _, err = run_script("validate_bench_records.py", path)
        self.assertEqual(code, 0, err)

    def test_svc_ignores_non_service_records(self):
        # A non-service record may omit the percentile keys even under --svc.
        with TempRecordFile([good_record(), self.svc_record()]) as path:
            code, _, err = run_script("validate_bench_records.py", path,
                                      "--svc")
        self.assertEqual(code, 0, err)

    @staticmethod
    def log_record(**overrides):
        # The E27 replicated-log record shape (bench/bench_log.cpp): one
        # slugged extra block per grid point, exact Rational strings.
        extra = {}
        for slug in ("n8_l5/2", "n24_l2"):
            extra[f"{slug}_commit_latency"] = "153/2"
            extra[f"{slug}_commit_over_lambda"] = "153/5"
            extra[f"{slug}_recovery"] = "264"
            extra[f"{slug}_recovery_over_lambda"] = "528/5"
            extra[f"{slug}_reconfig_overhead"] = "349"
            extra[f"{slug}_reconfig_over_lambda"] = "698/5"
            extra[f"{slug}_wall_ms"] = "2.32"
        rec = good_record(bench="bench_log", n=24, makespan="159",
                          verdict="CERTIFIED", extra=extra)
        rec["lambda"] = "2"
        rec.update(overrides)
        return rec

    def test_accepts_e27_log_record(self):
        # The E27 record must satisfy both the stable-key contract and the
        # --svc contract when it rides in the same file as a service record
        # (exactly how scripts/check.sh validates BENCH_postal.json).
        with TempRecordFile([self.log_record(), self.svc_record()]) as path:
            code, out, err = run_script("validate_bench_records.py", path,
                                        "--svc", "--expect", "bench_log",
                                        "--expect", "bench_service")
        self.assertEqual(code, 0, err)
        self.assertIn("2 valid record(s)", out)

    def test_e27_mismatch_verdict_fails(self):
        with TempRecordFile([self.log_record(verdict="MISMATCH")]) as path:
            code, _, err = run_script("validate_bench_records.py", path,
                                      "--expect", "bench_log")
        self.assertEqual(code, 1)
        self.assertIn("MISMATCH", err)


class CompareSweepRecordsTest(unittest.TestCase):
    def test_identical_modulo_walltime_and_threads(self):
        a = [good_record(), good_record(n=64)]
        b = [good_record(wall_ms=99.0,
                         extra={"threads": "1", "point_ms": "7.0",
                                "sends": "13"}),
             good_record(n=64, wall_ms=0.001,
                         extra={"threads": "8", "point_ms": "0.1",
                                "sends": "13"})]
        with TempRecordFile(a) as pa, TempRecordFile(b) as pb:
            code, out, err = run_script("compare_sweep_records.py", pa, pb)
        self.assertEqual(code, 0, err)
        self.assertIn("identical ignoring wall-time", out)

    def test_semantic_difference_fails(self):
        a = [good_record(makespan="15/2")]
        b = [good_record(makespan="8")]
        with TempRecordFile(a) as pa, TempRecordFile(b) as pb:
            code, _, err = run_script("compare_sweep_records.py", pa, pb)
        self.assertEqual(code, 1)
        self.assertIn("records differ at point 0", err)

    def test_extra_difference_fails(self):
        a = [good_record()]
        b = [good_record(extra={"threads": "4", "point_ms": "0.5",
                                "sends": "14"})]
        with TempRecordFile(a) as pa, TempRecordFile(b) as pb:
            code, _, err = run_script("compare_sweep_records.py", pa, pb)
        self.assertEqual(code, 1)

    def test_count_mismatch_fails(self):
        a = [good_record(), good_record(n=64)]
        b = [good_record()]
        with TempRecordFile(a) as pa, TempRecordFile(b) as pb:
            code, _, err = run_script("compare_sweep_records.py", pa, pb)
        self.assertEqual(code, 1)
        self.assertIn("record counts differ", err)

    def test_empty_file_fails(self):
        with TempRecordFile(raw="") as pa, TempRecordFile([good_record()]) as pb:
            code, _, err = run_script("compare_sweep_records.py", pa, pb)
        self.assertEqual(code, 1)
        self.assertIn("empty record file", err)

    def test_usage_error(self):
        code, _, err = run_script("compare_sweep_records.py")
        self.assertEqual(code, 2)
        self.assertIn("Usage", err)


class CompareTrajectoryGuardedMetricsTest(unittest.TestCase):
    """The ParMachine speedup floor: hard only on multi-core runners."""

    @staticmethod
    def run_compare(fresh_records, baseline_records):
        with tempfile.TemporaryDirectory() as base_dir:
            base_path = os.path.join(base_dir, "E24_par_machine.json")
            with open(base_path, "w", encoding="utf-8") as fh:
                for rec in baseline_records:
                    fh.write(json.dumps(rec) + "\n")
            with TempRecordFile(fresh_records) as fresh_path:
                return run_script("compare_trajectory.py", fresh_path,
                                  "--baseline-dir", base_dir)

    @staticmethod
    def par_record(speedup, threads_hw):
        return good_record(bench="bench_par_machine", threads_hw=threads_hw,
                           extra={"bcast_1m_t4_speedup": speedup})

    def test_speedup_below_floor_fails_on_multicore_runner(self):
        code, _, err = self.run_compare(
            [self.par_record("0.7", threads_hw=8)],
            [self.par_record("1.4", threads_hw=8)])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", err)
        self.assertIn("bcast_1m_t4_speedup", err)

    def test_speedup_below_floor_warns_on_small_runner(self):
        code, _, err = self.run_compare(
            [self.par_record("0.7", threads_hw=1)],
            [self.par_record("1.4", threads_hw=8)])
        self.assertEqual(code, 0, err)
        self.assertIn("bcast_1m_t4_speedup", err)
        self.assertNotIn("REGRESSION", err)

    def test_floor_message_quotes_the_load_at_start(self):
        fresh = self.par_record("0.7", threads_hw=8)
        fresh["extra"]["load1"] = "3.25"
        code, _, err = self.run_compare([fresh],
                                        [self.par_record("1.4", threads_hw=8)])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", err)
        self.assertIn("load1=3.25 at start", err)

    def test_speedup_at_floor_passes(self):
        code, _, err = self.run_compare(
            [self.par_record("1.3", threads_hw=8)],
            [self.par_record("1.4", threads_hw=8)])
        self.assertEqual(code, 0, err)
        self.assertNotIn("bcast_1m_t4_speedup", err)


class CompareTrajectoryMissingBaselineTest(unittest.TestCase):
    """A fresh bench with no committed baseline warns -- never crashes.

    First landing of a new bench (the E27 drift, the reason this test
    exists): its record rides in BENCH_postal.json before its trajectory
    file is committed. The guard must flag the coverage gap as a warning
    and still exit 0 so CI stays green on the landing itself.
    """

    @staticmethod
    def log_record():
        return good_record(bench="bench_log", verdict="CERTIFIED",
                           extra={"n24_l2_commit_latency": "159",
                                  "n24_l2_wall_ms": "3.72"})

    def test_missing_baseline_warns_but_passes(self):
        # Baseline dir covers bench_demo only; the fresh file also carries
        # the E27 record with no baseline anywhere.
        with tempfile.TemporaryDirectory() as base_dir:
            with open(os.path.join(base_dir, "E1_demo.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(good_record()) + "\n")
            with TempRecordFile([good_record(), self.log_record()]) as fresh:
                code, out, err = run_script("compare_trajectory.py", fresh,
                                            "--baseline-dir", base_dir)
        self.assertEqual(code, 0, err)
        self.assertIn("bench_log", err)
        self.assertIn("no committed baseline", err)
        self.assertNotIn("REGRESSION", err)
        self.assertIn("compared 1 bench(es)", out)

    def test_missing_baseline_fails_only_under_strict(self):
        with tempfile.TemporaryDirectory() as base_dir:
            with open(os.path.join(base_dir, "E1_demo.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(good_record()) + "\n")
            with TempRecordFile([self.log_record()]) as fresh:
                code, _, err = run_script("compare_trajectory.py", fresh,
                                          "--baseline-dir", base_dir,
                                          "--strict")
        self.assertEqual(code, 1)
        self.assertIn("no committed baseline", err)

    def test_committed_baseline_silences_the_warning(self):
        with tempfile.TemporaryDirectory() as base_dir:
            with open(os.path.join(base_dir, "E27_log.json"), "w",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(self.log_record()) + "\n")
            with TempRecordFile([self.log_record()]) as fresh:
                code, out, err = run_script("compare_trajectory.py", fresh,
                                            "--baseline-dir", base_dir)
        self.assertEqual(code, 0, err)
        self.assertNotIn("no committed baseline", err)
        self.assertIn("compared 1 bench(es)", out)


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--scripts-dir":
        SCRIPTS_DIR = os.path.abspath(sys.argv[2])
        sys.argv = sys.argv[:1] + sys.argv[3:]
    unittest.main(verbosity=2)
