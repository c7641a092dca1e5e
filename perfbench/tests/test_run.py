#!/usr/bin/env python3
"""Tests for perfbench/run.py and the benchmark's contract: the spread
statistic, the cross-run determinism guard, metric names, the repo-contract
linter over the benchmark's sources, and one short run whose output must
carry exactly the metrics BENCHMARK.json declares.

Run: python3 perfbench/tests/test_run.py (perfbench/run.py --self-test runs
it after the C++ tests).
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


run = load("perfbench_run", BENCH / "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        s = run.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        self.assertEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(run.spread([2.0] * 10)["spread"], 0.0)


class DeterminismGuardTest(unittest.TestCase):
    def test_same_binary_same_counts_passes(self):
        with tempfile.TemporaryDirectory() as d:
            counts = {"search.nodes": 5, "milp.nodes": 0}
            self.assertIsNone(run.check_counts(Path(d), "w-1", "bin", counts))
            self.assertIsNone(run.check_counts(Path(d), "w-1", "bin", dict(counts)))

    def test_same_binary_different_counts_fails(self):
        with tempfile.TemporaryDirectory() as d:
            run.check_counts(Path(d), "w-1", "bin", {"search.nodes": 5})
            self.assertIsNotNone(run.check_counts(Path(d), "w-1", "bin", {"search.nodes": 6}))

    def test_new_binary_starts_a_new_record(self):
        with tempfile.TemporaryDirectory() as d:
            run.check_counts(Path(d), "w-1", "old", {"search.nodes": 5})
            self.assertIsNone(run.check_counts(Path(d), "w-1", "new", {"search.nodes": 6}))
            self.assertIsNotNone(run.check_counts(Path(d), "w-1", "new", {"search.nodes": 5}))


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_metric_names_and_units(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME_RE)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_sources_pass_the_contract_linter(self):
        lint = load("lint_contracts", ROOT / "scripts" / "lint_contracts.py")
        for path in sorted(BENCH.rglob("*")):
            if path.suffix not in lint.CPP_SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8")
            # Checked under the bench/ rules (JSON emitters stamp
            # bench_meta.hpp) and the src/ rules (annotated sync only).
            for prefix in ("bench/", "src/"):
                rel = prefix + path.name
                self.assertEqual(lint.lint_file(rel, text), [], rel)

    def test_a_short_run_reports_exactly_the_declared_metrics(self):
        binary = run.build("perfbench")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, counts = run.run_once(binary, "milp-tree", 5, 0.5, trace)
            self.assertEqual(code, 0)
            out = json.loads(result)
            self.assertEqual(sorted(out), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(out["correct"])
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, declared)
            self.assertEqual(sorted(counts), sorted(run.COUNT_KEYS))


if __name__ == "__main__":
    unittest.main()
