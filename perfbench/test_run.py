#!/usr/bin/env python3
"""Tests of the benchmark itself, on a tiny corpus.

    python3 perfbench/test_run.py

Each workload must print every metric by name with its unit, in both the
untraced and the traced run; a run fed one corrupted reference must
report fail_ratio > 0 and exit non-zero; and a directory holding only
BENCHMARK.json and perfbench/ (no sources to build) must fail without
printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--pipelines", "8", "--seconds", "0.3"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

# Every metric each workload prints in its untraced run, with its unit.
END_TO_END = {
    "setup_s": "s", "records_per_s": "records/s", "pipeline_ms_p50": "ms",
    "pipeline_ms_p90": "ms", "peak_rss_mb": "MB",
    "fail_ratio": "failed/attempted",
}
DURABLE_ONLY = {
    "query_us_p50": "us", "query_us_p99": "us", "recovery_ms_p50": "ms",
    "recovery_ms_p90": "ms",
}
METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)$")


def run(workload, *extra, cwd=ROOT, runner=RUN):
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "7",
         "--trace", "0"] + TINY + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    return proc, lines, printed


class BenchmarkTest(unittest.TestCase):

    def check_result_line(self, lines, wanted):
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertGreaterEqual(result["attempted"], 1)
        for spec in wanted:
            self.assertIn(spec["name"], result["metrics"])
            self.assertEqual(result["metrics"][spec["name"]]["unit"],
                             spec["unit"])
        self.assertEqual(len(result["metrics"]), len(wanted))
        return result

    def test_every_metric_prints_with_its_unit(self):
        for workload in ("replay", "fleet", "durable_lineage"):
            with self.subTest(workload=workload):
                proc, lines, printed = run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = self.check_result_line(lines, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                expected = dict(END_TO_END)
                if workload == "durable_lineage":
                    expected.update(DURABLE_ONLY)
                for name, unit in expected.items():
                    self.assertIn(name, printed)
                    self.assertEqual(printed[name][1], unit, name)
                self.assertEqual(printed["fail_ratio"][0], 0.0)

    def test_traced_run_prints_every_layer_metric(self):
        for workload in ("replay", "fleet", "durable_lineage"):
            with self.subTest(workload=workload):
                proc, lines, printed = run(workload, "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = self.check_result_line(lines, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                for spec in SPEC["per_layer"]:
                    self.assertEqual(printed[spec["name"]][1], spec["unit"])
                self.assertTrue(
                    any(line.startswith("  residual:") for line in lines),
                    "self-time table states its residual")

    def test_corrupted_reference_fails_the_run(self):
        for workload in ("replay", "fleet", "durable_lineage"):
            with self.subTest(workload=workload):
                proc, lines, printed = run(workload, "--corrupt-reference")
                self.assertNotEqual(proc.returncode, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(printed["fail_ratio"][0], 0.0)
                self.assertIn("MISMATCH", proc.stderr)
                if workload == "durable_lineage":
                    self.assertIn("MISMATCH: recovery", proc.stderr)

    def test_without_sources_fails_and_prints_no_result(self):
        isolated = os.path.join(ROOT, ".bench_build", "tests", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, lines, _ = run(
                "replay", cwd=isolated,
                runner=os.path.join(isolated, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            for line in lines:
                self.assertFalse(line.startswith("{"), line)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
