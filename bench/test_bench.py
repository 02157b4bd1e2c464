"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(workload):
    """The ops the command-line runs use plus the smallest op of each
    family, so a test run is quick but reaches every code path."""

    def pick(corpus):
        keep = {op.id for _, op in workload.cli_cases(corpus)}
        for family in {op.family for op in corpus}:
            keep.add(min((op for op in corpus if op.family == family),
                         key=lambda op: (op.size, op.id)).id)
        return [op for op in corpus if op.id in keep]

    return pick


def quick(name, trace=0, patch=None):
    result, _ = run.benchmark(name, seed=3, seconds=0.01, trace=trace, patch=patch,
                              subset=small(WORKLOADS[name]), cli_per_pass=1,
                              setup_repeats=1, import_runs=1)
    return result


def replaced(lib, **functions):
    stand_in = types.SimpleNamespace(**vars(lib))
    for name, fn in functions.items():
        setattr(stand_in, name, fn)
    return stand_in


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                first = workload.corpus(random.Random(11))
                self.assertEqual(first, workload.corpus(random.Random(11)))
                self.assertNotEqual(first, workload.corpus(random.Random(12)))
                self.assertGreaterEqual(len(first), 200)

    def test_rebind_changes_a_live_occurrence(self):
        rng = random.Random(5)
        for _ in range(50):
            t = gen.random_term(rng, 30)
            self.assertEqual(gen.node_count(t), 30)
            rebound = gen.rebind(t, rng)
            if rebound is not None:
                self.assertNotEqual(rebound, t)
                self.assertEqual(gen.node_count(rebound), 30)


class PlantedFaults(unittest.TestCase):
    def assert_counted(self, name, plant):
        """``plant(lib)`` returns the functions to replace in ``lib``."""
        result = quick(name, patch=lambda lib: replaced(lib, **plant(lib)))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_clean_run_has_no_failures(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = quick(name)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_flipped_verdict(self):
        self.assert_counted("equiv", lambda lib: {
            "are_bisimilar": lambda g1, g2: not lib.are_bisimilar(g1, g2)})

    def test_uncollapsed_quotient(self):
        self.assert_counted("maxshare", lambda lib: {
            "collapse": lambda g: (g, {v: v for v in g.vertices()})})

    def test_truncated_output(self):
        def plant(lib):
            def truncated(doc):
                return lib.serialize_graph(doc).rsplit("\n", 2)[0] + "\n"

            return {"serialize_graph": truncated}

        for name in ("maxshare", "maxshare_ho"):
            with self.subTest(workload=name):
                self.assert_counted(name, plant)

    def test_unshared_higher_order_result(self):
        self.assert_counted("maxshare_ho", lambda lib: {"max_share_ho": lambda h: h})


class Metrics(unittest.TestCase):
    def test_printed_metrics_are_declared_and_the_reverse(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in DECLARED[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    metrics = quick(name, trace=trace)["metrics"]
                    self.assertEqual({k: m["unit"] for k, m in metrics.items()}, declared)

    def test_workloads_are_declared(self):
        self.assertEqual({w["name"] for w in DECLARED["workloads"]}, set(WORKLOADS))

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "maxshare",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
