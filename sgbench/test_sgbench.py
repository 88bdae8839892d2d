#!/usr/bin/env python3
"""Self-tests of the sgbench benchmark.

    python3 sgbench/test_sgbench.py        (from the repository root)

Each workload runs at a tiny level for one second.  The tests check that the
gates pass on a healthy build, that a one-ulp perturbation of a checked result
and a rejected job both trip the gates and are counted as failed operations,
that the printed metric names and units match BENCHMARK.json, and that the
benchmark refuses to run (non-zero exit, no result) without the library
sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-l7", "combine-l10", "svc-tcp")
TINY_LEVEL = "3"


def run(workload, trace="0", inject="none", cwd=ROOT):
    """Runs the benchmark once; returns (exit code, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "sgbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", trace, "--level", TINY_LEVEL,
         "--inject", inject],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result


class SgbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_healthy_runs_pass_and_print_the_declared_metrics(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_one_ulp_perturbation_is_a_failed_operation(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace=trace, inject="ulp")
                    self.assertEqual(code, 0)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertGreater(result["attempted"], result["failed"])

    def test_rejected_job_is_a_failed_operation(self):
        code, result = run("svc-tcp", inject="reject")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])

    def test_refuses_to_run_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "sgbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = run("paper-l7", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
