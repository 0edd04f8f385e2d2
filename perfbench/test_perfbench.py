"""Tests of the benchmark itself.  From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test builds the driver (about a minute the first time) and runs
one short workload.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ledger  # noqa: E402


def solve(observables, error=""):
    return {
        "kind": "untraced",
        "error": error,
        "setup_s": 1.0,
        "solve_s": 2.0,
        "step_s": [0.1, 0.2],
        "observables": dict(observables),
        "checks": {"finite": True, "bounded": True},
        "model": {"stage_flops": [1, 2, 3, 4, 5, 6, 7]},
    }


def fake_run(*solves):
    return {"workload": "serial_bluff", "seed": 7, "steady_steps": 30, "peak_rss_mb": 10.0,
            "solves": list(solves)}


OBS = {"l2_u": 20.5, "l2_v": 0.77, "div_norm": 1.6}
REFERENCE = {"workloads": {"serial_bluff": {"steady_steps": 30,
                                            "seeds": {"7": {"observables": OBS}}}}}


class MetricNames(unittest.TestCase):
    def test_names_and_units_follow_the_charset(self):
        for name, unit in ledger.END_TO_END + ledger.PER_LAYER:
            self.assertRegex(name, ledger.METRIC_NAME)
            self.assertRegex(unit, ledger.UNIT_NAME)
        names = [n for n, _ in ledger.END_TO_END + ledger.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_the_same_metrics_and_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], ledger.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], ledger.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(ledger.THREADS))


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(ledger.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(ledger.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_tail_has_ten_samples_beyond_it(self):
        xs = list(range(1, 41))
        value, pct, n = ledger.tail(xs)
        self.assertEqual((value, pct, n), (30, 75.0, 40))
        self.assertEqual(sum(x > value for x in xs), 10)

    def test_tail_of_ten_samples_or_fewer_is_the_maximum(self):
        self.assertEqual(ledger.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_end_to_end_reports_medians_with_sample_counts(self):
        run = fake_run(solve(OBS), solve(OBS), solve(OBS, error="boom"))
        metrics, counts = ledger.end_to_end(run)
        self.assertEqual(metrics["setup_s"], 1.0)
        self.assertAlmostEqual(metrics["step_s"], 0.15)
        self.assertEqual(counts, {"setup_s": 2, "step_s": 4, "solve_s": 2, "peak_rss_mb": 1})


class FailRate(unittest.TestCase):
    def failed(self, run, reference):
        checks = ledger.check_run(run, reference)
        return len(checks), [(i, name) for i, name, ok in checks if not ok]

    def test_matching_reference_passes(self):
        attempted, failed = self.failed(fake_run(solve(OBS), solve(OBS)), REFERENCE)
        self.assertEqual(failed, [])
        self.assertEqual(attempted, 9)

    def test_injected_bad_reference_counts_as_failed(self):
        bad = copy.deepcopy(REFERENCE)
        bad["workloads"]["serial_bluff"]["seeds"]["7"]["observables"]["l2_u"] *= 1 + 1e-8
        attempted, failed = self.failed(fake_run(solve(OBS), solve(OBS)), bad)
        self.assertEqual(failed, [(0, "reference"), (1, "reference")])
        self.assertEqual(attempted, 9)

    def test_crash_and_unrepeatable_outputs_count_as_failed(self):
        moved = dict(OBS, l2_v=0.78)
        _, failed = self.failed(fake_run(solve(OBS), solve(moved), solve(OBS, error="nan")), {})
        self.assertEqual(failed, [(1, "repeatable"), (2, "completed")])

    def test_unseen_seed_has_no_reference_check(self):
        run = fake_run(solve(OBS))
        run["seed"] = 8
        attempted, failed = self.failed(run, REFERENCE)
        self.assertEqual((attempted, failed), (3, []))


class UnseenSeed(unittest.TestCase):
    def test_unseen_seed_passes_the_invariant_checks(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fourier_wake_p8",
             "--seed", "424242", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), {n for n, _ in ledger.END_TO_END})


if __name__ == "__main__":
    unittest.main()
