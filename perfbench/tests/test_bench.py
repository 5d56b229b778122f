"""Tests of the campaign benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench/tests

They build `racesim` and `perfbench-tracer` like a benchmark run does and
take about a minute on two cores.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (the benchmark driver, imported from its directory)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchTestCase(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.racesim, cls.tracer = run.build()
        cls.work = os.path.join(run.ROOT, ".bench_work", f"tests-{os.getpid()}-{cls.__name__}")
        shutil.rmtree(cls.work, ignore_errors=True)
        os.makedirs(cls.work)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)


class SmokeTest(BenchTestCase):
    """Every workload, in both modes, at a tiny scale and budget."""

    def bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        return last_json(r.stdout)

    def check(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        end_to_end, _ = run.metric_specs()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(self.bench(workload, 0), end_to_end)

    def test_traced_runs_emit_every_per_layer_metric(self):
        _, per_layer = run.metric_specs()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.bench(workload, 1)
                self.check(result, per_layer)
                m = result["metrics"]
                self.assertGreater(m["race.evals"]["value"], 0)
                self.assertGreater(m["uarch.instructions"]["value"], 0)
                dist = m["dist.batches"]["value"] > 0
                self.assertEqual(dist, run.WORKLOADS[workload]["workers"] > 0)
                journaled = m["telemetry.events"]["value"] > 0
                self.assertEqual(journaled, run.WORKLOADS[workload]["journal"])


class EquivalenceTest(BenchTestCase):
    """Staging and distribution must not change a campaign's result."""

    def same_result(self, a, b):
        for key in ("evals", "config_sha256", "best_line"):
            self.assertEqual(a[key], b[key], key)

    def test_staged_campaign_equals_the_unstaged_one(self):
        w = run.workload_params("a72-staged", False)
        staged = run.cli_campaign(self.racesim, w, run.DEFAULT_TUNER_SEED,
                                  os.path.join(self.work, "staged"))
        unstaged = run.cli_campaign(self.racesim, dict(w, segments=1, journal=False),
                                    run.DEFAULT_TUNER_SEED, os.path.join(self.work, "unstaged"))
        self.same_result(staged, unstaged)
        self.assertEqual(staged["best_line"], "28.77")

    def test_distributed_campaign_equals_the_in_process_one(self):
        w = run.workload_params("a53-dist", False)
        dist = run.cli_campaign(self.racesim, w, run.DEFAULT_TUNER_SEED,
                                os.path.join(self.work, "dist"))
        local = run.cli_campaign(self.racesim, dict(w, workers=0), run.DEFAULT_TUNER_SEED,
                                 os.path.join(self.work, "local"))
        self.same_result(dist, local)

    def test_recorded_references_match_the_library_reference(self):
        with open(run.EXPECTED) as f:
            table = json.load(f)
        for name in ("a72-staged", "a53-dist"):
            with self.subTest(workload=name):
                w = run.workload_params(name, False)
                fresh = run.reference(name, w, run.DEFAULT_TUNER_SEED, False, self.tracer,
                                      self.racesim, os.path.join(self.work, name))
                del fresh["source"]
                self.assertEqual(fresh, table[f"{name}/{run.DEFAULT_TUNER_SEED}"])


class BareDirectoryTest(unittest.TestCase):
    """Without the repository around it the benchmark must fail fast,
    printing no result."""

    def test_fails_without_a_result(self):
        bare = os.path.join(run.ROOT, ".bench_work", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(run.BENCHMARK, bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "a53-dist", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"correct"', r.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
