#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that the workloads
are reproducible from their seed, that every metric name is well formed
and matches BENCHMARK.json, that the traced binary wraps exactly the
entry points the workloads expect, and that self-time accounting is
right on a synthetic call tree.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def unit_stats(binary, workload, seed):
    _, events = run.run_binary(binary, workload, seed, 0)
    return {r["unit"]: r["stats"] for r in run.reps_of(events)}


def bench_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT)
    return proc, json.loads(proc.stdout.splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bin = run.build()
        subprocess.run(["cmake", "--build", str(cls.bin), "--target",
                        "shim_test"], check=True, capture_output=True)

    def test_same_seed_gives_the_reference_values(self):
        reference = json.loads(run.REFERENCE.read_text())
        self.assertEqual(reference["seed"], run.DEFAULT_SEED)
        for workload in run.WORKLOADS:
            first = unit_stats(self.bin / "perfbench", workload,
                               run.DEFAULT_SEED)
            again = unit_stats(self.bin / "perfbench_traced", workload,
                               run.DEFAULT_SEED)
            self.assertEqual(first, again, workload)
            self.assertEqual(first, reference["workloads"][workload],
                             workload)

    def test_different_seeds_give_different_values(self):
        for workload in run.WORKLOADS:
            a = unit_stats(self.bin / "perfbench", workload, 1)
            b = unit_stats(self.bin / "perfbench", workload, 2)
            self.assertEqual(a.keys(), b.keys())
            for unit in a:
                self.assertNotEqual(a[unit], b[unit], f"{workload} {unit}")

    def test_metric_names(self):
        declared = {0: [m["name"] for m in BENCHMARK["end_to_end"]],
                    1: [m["name"] for m in BENCHMARK["per_layer"]]}
        for names in declared.values():
            for name in names:
                self.assertTrue(NAME.fullmatch(name), name)
        for trace, names in declared.items():
            proc, result = bench_metrics("chat_short", trace)
            self.assertEqual(proc.returncode, 0, proc.stdout)
            self.assertTrue(result["correct"])
            self.assertEqual(sorted(result["metrics"]), sorted(names))
            units = {m["name"]: m["unit"] for m in
                     BENCHMARK["end_to_end" if trace == 0 else "per_layer"]}
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], units[name], name)

    def test_expected_entries_cover_every_wrapped_entry(self):
        _, events = run.run_binary(self.bin / "perfbench_traced",
                                   "chat_short", 1, 0)
        trace = next(e for e in events if e["event"] == "trace")
        wrapped = {e["entry"] for e in trace["entries"]}
        self.assertTrue(all(e["present"] for e in trace["entries"]))
        expected = set().union(*(w["expect"]
                                 for w in run.WORKLOADS.values()))
        self.assertEqual(expected, wrapped)
        self.assertEqual({e["layer"] for e in trace["entries"]},
                         set(run.LAYERS))

    def test_self_time_accounting_on_a_synthetic_call_tree(self):
        proc = subprocess.run([str(self.bin / "shim_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
