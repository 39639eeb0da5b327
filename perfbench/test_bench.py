#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_bench.py

Builds the benchmark if needed (through run.py), then checks that a short run of every
workload prints every metric BENCHMARK.json names with its unit, that the seed drives the op
stream, that the correctness check fails the run on an injected bad reply or state mismatch,
and that the command fails without printing a result when the sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# End-to-end figures every untraced run prints in its detail line, gated or not, by unit.
DETAIL_UNITS = {"setup_s": "s", "setup_wall_s": "s", "cpu_us_per_op": "us", "peak_rss_mb": "MB",
                "ops_per_s": "1/s", "p50_us": "us", "p99_us": "us", "p999_us": "us",
                "fail_ratio": "ratio"}
KV_DETAIL_UNITS = {"write_p50_us": "us", "read_p50_us": "us"}
FAILOVER_DETAIL_UNITS = {"outage_ms": "ms", "catchup_ms": "ms"}


def bench(*args, cwd=ROOT):
    return subprocess.run(RUN + [str(a) for a in args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-2])["detail"]


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        proc = bench("--workload", workload, "--seed", 5, "--seconds", 1, "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(printed[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(printed[m["name"]]["value"], (int, float), m["name"])
        return proc

    def test_short_runs_print_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                proc = self.check_metrics(workload, 0, SPEC["end_to_end"])
                units = dict(DETAIL_UNITS)
                if workload != "null_closed":
                    units.update(KV_DETAIL_UNITS)
                if workload == "kv_failover":
                    units.update(FAILOVER_DETAIL_UNITS)
                detail = detail_of(proc)
                for name, unit in units.items():
                    self.assertEqual(detail[name]["unit"], unit, name)
                for name in FAILOVER_DETAIL_UNITS:
                    if name in units:  # measured, never a stand-in for an event that did not happen
                        self.assertGreater(detail[name]["value"], 0, name)
            with self.subTest(workload=workload, trace=1):
                self.check_metrics(workload, 1, SPEC["per_layer"])

    def test_seed_drives_the_op_stream(self):
        def digest(workload, seed):
            proc = bench("--workload", workload, "--seed", seed, "--seconds", 1, "--trace", 0,
                         "--print-op-digest")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return proc.stdout.strip()

        for workload in ("kv_open", "kv_failover"):
            self.assertEqual(digest(workload, 1), digest(workload, 1))
            self.assertNotEqual(digest(workload, 1), digest(workload, 2))

    def check_rejected(self, workload, inject, message):
        proc = bench("--workload", workload, "--seed", 3, "--seconds", 1, "--trace", 0,
                     "--inject", inject)
        self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
        self.assertFalse(result_of(proc)["correct"])
        self.assertIn(message, proc.stderr)

    def test_check_rejects_a_bad_null_reply(self):
        self.check_rejected("null_closed", "reply", "null reply of 1 bytes")

    def test_check_rejects_a_bad_kv_reply(self):
        self.check_rejected("kv_open", "reply", "returned a value not written for it")

    def test_check_rejects_a_state_mismatch(self):
        self.check_rejected("null_closed", "state", "state digest differs")

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kv_open",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
