#!/usr/bin/env python3
"""The benchmark's own test: a minimal-size run of every workload.

Run from the repository root (builds on first use):

    python3 -m unittest sapbench/test_sapbench.py

For each workload in BENCHMARK.json it makes two untraced smoke runs and one
traced run, and asserts that every run is correct, that every end-to-end
(untraced) and per-layer (traced) metric is emitted with its declared unit,
and that the deterministic quality metrics repeat exactly.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
QUALITY = ("weight_total", "cert_ub_ratio")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, done.returncode, done.stderr[-4000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The untraced run also prints the round count of its quality sample.
    for line in lines:
        match = re.search(r"rounds_total (\d+)", line)
        if match:
            result["rounds_total"] = int(match.group(1))
    return result


class SapbenchTest(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_workload(self):
        spec = load_spec()
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload):
                first = run_bench(workload, 0)
                second = run_bench(workload, 0)
                traced = run_bench(workload, 1)
                self.assert_metrics(first, spec["end_to_end"])
                self.assert_metrics(second, spec["end_to_end"])
                self.assert_metrics(traced, spec["per_layer"])
                for name in QUALITY:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                    self.assertGreater(first["metrics"][name]["value"], 0)
                self.assertEqual(first["rounds_total"], second["rounds_total"])
                self.assertEqual(first["rounds_total"],
                                 traced["metrics"]["round.rounds_total"]["value"])

    def test_refuses_without_sources(self):
        # A directory holding only the benchmark must fail without a result.
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "sapbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            done = subprocess.run(
                [sys.executable, "sapbench/run.py", "--workload", "solve_e6",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=""))
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
