#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Runs the tiny shape of every workload (fleet 1x, a few hundred batches) in
seconds and checks that each run prints every metric named in BENCHMARK.json
with its unit, passes its own output checks, repeats exactly where the
workload is deterministic, and writes a readable trace. Also checks
BENCHMARK.json against the benchmark contract and that the benchmark fails
cleanly without the program's sources.

    python3 perfbench/tests/test_perfbench.py      # from the repository root
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ["fleet_manual", "fleet_brain", "train_threads", "train_ticks"]
DETERMINISTIC = {"fleet_manual", "fleet_brain", "train_ticks"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_tiny(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--shape", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = re.search(r"^digest ([0-9a-f]{16})$", proc.stderr, re.M)
    return result, digest.group(1) if digest else None


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        names = set()
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.add(w["name"])
        bounds = {}
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            bounds[m["name"]] = m["bound"]
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], names)
            names.add(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        # Set-up time carries the largest bound, so work moved there shows.
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_fails_without_program_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "selftest_isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(isolated, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet_manual",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=isolated, capture_output=True, text=True, timeout=180)
        shutil.rmtree(isolated, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class WorkloadTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()

    def check_metrics(self, result, key):
        expected = [(m["name"], m["unit"]) for m in self.spec[key]]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def check_result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result, digest = parse(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, digest

    def test_untraced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, digest = self.check_result(run_tiny(workload, 0))
                self.check_metrics(first, "end_to_end")
                for m in first["metrics"].values():
                    self.assertNotEqual(m["value"], 0)
                if workload in DETERMINISTIC:
                    second, again = self.check_result(run_tiny(workload, 0))
                    self.assertEqual(digest, again)
                    for name, m in first["metrics"].items():
                        if name.startswith("sim_") or name == "final_logloss":
                            self.assertEqual(m, second["metrics"][name])

    def test_traced_runs(self):
        traces = os.path.join(ROOT, ".bench_build", "traces")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = self.check_result(run_tiny(workload, 1))
                self.check_metrics(result, "per_layer")
                self.assertEqual(
                    result["metrics"]["trace.same_schedule"]["value"], 1)
                stem = os.path.join(traces, f"{workload}-seed1")
                with open(stem + ".trace.json") as f:
                    events = json.load(f)["traceEvents"]
                self.assertGreater(len(events), 0)
                self.assertTrue(all(e["ph"] == "X" for e in events))
                with open(stem + ".selftime.json") as f:
                    summary = json.load(f)
                self.assertEqual(set(summary), {"layers", "calls"})

    def test_rejects_bad_arguments(self):
        proc = subprocess.run(
            RUN + ["--workload", "nope", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
