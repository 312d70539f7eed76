#!/usr/bin/env python3
"""End-to-end tests of the benchmark: every workload on two further seeds.

    python3 perfbench/test_bench.py

Run from the repository root after (or instead of) a first `run.py` build.
Each workload runs briefly with `--trace 0` on two seeds and with
`--trace 1` on one, and each result must be correct and report exactly the
metrics `BENCHMARK.json` lists, with their units.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEEDS = (11, 12)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return out.returncode, out.stdout.strip().splitlines()


class BenchmarkTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        b = bench()
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def check_result(self, workload, seed, trace, expected):
        code, lines = run(workload, seed, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected, f"{workload} seed {seed} trace {trace}")
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        self.assertIn('"host"', lines[-2])
        return result["metrics"]

    def test_every_workload_runs_clean_on_two_seeds(self):
        b = bench()
        e2e = {m["name"]: m["unit"] for m in b["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in b["per_layer"]}
        for w in b["workloads"]:
            first, second = (self.check_result(w["name"], s, 0, e2e) for s in SEEDS)
            for m in b["end_to_end"]:
                self.assertGreater(first[m["name"]]["value"], 0, m["name"])
            # Another seed is another input: the simulated outcome moves.
            self.assertNotEqual(first["energy_uj_per_event"], second["energy_uj_per_event"])
            self.check_result(w["name"], SEEDS[0], 1, layers)


if __name__ == "__main__":
    unittest.main()
