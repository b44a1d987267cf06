#!/usr/bin/env python3
"""Short version of every workload: each must finish correct and print
every metric BENCHMARK.json names, with its unit, in both modes; a second
run with the same seed must reproduce the seed's counts (run.py's
determinism guard fails the run otherwise).

    python3 perfbench/test_bench.py      # from the checkout root, ~2 min
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, workload):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(workload, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            for m in self.spec[section]:
                self.assertIn(m["name"], result["metrics"])
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"], m["name"])
            if trace == 0:
                self.assertEqual(result["metrics"]["ok_rate"]["value"], 1)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_generate(self):
        self.check_workload("generate")

    def test_serve(self):
        self.check_workload("serve")

    def test_same_seed_repeats(self):
        # Both runs pass run.py's determinism guard, which compares the
        # seed's recorded counts with the earlier run's.
        for _ in range(2):
            proc, result = run("serve", 0, seed=SEED + 1)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"])


if __name__ == "__main__":
    unittest.main()
