"""Tests of the repository benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Each test runs perfbench/run.py with one-second phases (the set-up passes
still simulate the three figure scenarios, so a run takes ten seconds or
more).  The first run builds the harness under .bench_build/.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

_cache = {}


def run(workload, seed, trace):
    """Run the benchmark once; returns (exit code, result, stdout)."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = subprocess.run(
            RUN + ["--workload", workload, "--seed", str(seed),
                   "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _cache[key] = (proc.returncode, result, proc.stdout)
    return _cache[key]


def digests(stdout):
    m = re.search(r"digests: requests ([0-9a-f]+) responses ([0-9a-f]+)",
                  stdout)
    return m.group(1), m.group(2)


def declared(kind):
    return {(m["name"], m["unit"]) for m in BENCHMARK[kind]}


class MetricContract(unittest.TestCase):
    def check(self, workload, trace, kind):
        code, result, stdout = run(workload, 3, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = {(name, m["unit"]) for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared(kind))
        if trace == 0:
            # Shown with its unit, but not bounded in BENCHMARK.json.
            shown = ["sim_days_per_s", "query_p99_us", "failed_ratio"]
            if workload == "paper-pipeline":
                shown.append("pipeline_s")
            for name in shown:
                self.assertRegex(stdout, r"(?m)^  %s " % name)

    def test_end_to_end_metrics_match_benchmark_json(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, "end_to_end")

    def test_per_layer_metrics_match_benchmark_json(self):
        self.check("paper-pipeline", 1, "per_layer")


class Determinism(unittest.TestCase):
    COUNTS = ("sim.sched.passes", "sim.jobs.started",
              "serve.evaluations_per_request")

    def test_same_seed_gives_identical_counts_and_digests(self):
        _, first, out_first = run("paper-pipeline", 5, 1)
        _cache.pop(("paper-pipeline", 5, 1))
        _, second, out_second = run("paper-pipeline", 5, 1)
        for name in self.COUNTS:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        self.assertEqual(digests(out_first), digests(out_second))

    def test_other_seed_changes_the_requests(self):
        _, _, out_a = run("paper-pipeline", 5, 1)
        _, _, out_b = run("paper-pipeline", 6, 1)
        self.assertNotEqual(digests(out_a)[0], digests(out_b)[0])


if __name__ == "__main__":
    unittest.main()
