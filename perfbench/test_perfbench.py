#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

  python3 perfbench/test_perfbench.py

Builds flashbench the way run.py does, then checks that every metric
name is well formed and reported, that a wrong record makes its runs
count as failed, and that the seed reaches exactly the seeded apps.
"""

import copy
import importlib.util
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDED_APPS = ("mp3d", "radix", "barnes", "os")


def flashbench(workload, seed, trace=0):
    """A short run: a near-zero budget stops after the fewest passes
    (three, or four with tracing)."""
    exe = run.build(run.build_dir())
    return run.flashbench(exe, workload, seed, 0.001, trace)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_all_reported(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        raw = flashbench("barnes_compute", 0, trace=1)
        for kind, reported in (("end_to_end", run.end_to_end(raw)),
                               ("per_layer", run.per_layer(raw))):
            declared = [m["name"] for m in bench[kind]]
            for name in declared + list(reported):
                self.assertTrue(METRIC_NAME.fullmatch(name), name)
            self.assertEqual(sorted(declared), sorted(reported), kind)


class Records(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.raw = flashbench("radix_writeback", 0)
        cls.records = run.load_records()

    def test_committed_record_passes(self):
        attempted, failed, problems = run.check(self.raw, self.records)
        self.assertEqual((attempted, failed),
                         (len(self.raw["passes"]), 0), problems)

    def test_wrong_record_fails_every_run(self):
        for key in ("exec_time", "state_digest", "mdc_writebacks"):
            bad = copy.deepcopy(self.records)
            bad["radix_writeback"]["0"]["radix/flash"][key] += 1
            attempted, failed, problems = run.check(self.raw, bad)
            self.assertEqual(failed, attempted, key)
            self.assertIn(key, problems[0])

    def test_unsorted_radix_output_fails(self):
        raw = dict(self.raw, radix_sorted=False)
        attempted, failed, _ = run.check(raw, self.records)
        self.assertEqual(failed, attempted)

    def test_pass_that_differs_from_the_first_fails(self):
        raw = copy.deepcopy(self.raw)
        raw["passes"][1]["sim"][0]["msgs_in"] += 1
        _, failed, problems = run.check(raw, {})
        self.assertEqual(failed, 1, problems)


class Seeds(unittest.TestCase):
    def test_seed_changes_only_the_seeded_apps(self):
        a = flashbench("paper_suite", 0)
        b = flashbench("paper_suite", 1)
        for label, sa, sb in zip(a["machines"], a["passes"][0]["sim"],
                                 b["passes"][0]["sim"]):
            if label.split("/")[0] in SEEDED_APPS:
                self.assertNotEqual(sa["state_digest"],
                                    sb["state_digest"], label)
            else:
                self.assertEqual(sa, sb, label)


if __name__ == "__main__":
    unittest.main()
