#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds like run.py (into $CARGO_TARGET_DIR or .bench_build), then checks,
on every simulator workload:
  * the same (workload, seed) run twice reports identical simulated-time
    and count metrics;
  * the traced run of a seed passes its built-in check that its traced and
    untraced repetitions produced identical deterministic counts, and
    reports the same attempts and failures as the untraced run;
  * a second seed also passes the correctness gate;
and that the benchmark fails without printing a result when the tree it
should build is missing. Takes about three minutes on one core.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SIM_WORKLOADS = ("idle-closure", "transient-storm", "client-churn")
# Simulated-time and count metrics: identical for identical (workload, seed).
DETERMINISTIC = ("pkts_per_node_s", "latency_ms_p50", "latency_ms_p90",
                 "completed_per_s")


def bench(workload, seed, trace):
    bdir = run.build_dir()
    out = bdir / "perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    p = subprocess.run(
        [str(bdir / "ssr_perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=170)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(run.build_dir()):
            raise RuntimeError("perfbench build failed")

    def assert_correct(self, rc, result, stdout):
        self.assertEqual(rc, 0, stdout)
        self.assertTrue(result["correct"], stdout)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_same_seed_repeats_exactly(self):
        for w in SIM_WORKLOADS:
            with self.subTest(workload=w):
                rc1, a, out1 = bench(w, 3, 0)
                rc2, b, out2 = bench(w, 3, 0)
                self.assert_correct(rc1, a, out1)
                self.assert_correct(rc2, b, out2)
                self.assertEqual(a["attempted"], b["attempted"])
                self.assertEqual(a["failed"], b["failed"])
                for m in DETERMINISTIC:
                    self.assertEqual(a["metrics"][m]["value"],
                                     b["metrics"][m]["value"], m)

    def test_traced_run_matches_untraced(self):
        for w in SIM_WORKLOADS:
            with self.subTest(workload=w):
                rc_u, u, out_u = bench(w, 5, 0)
                rc_t, t, out_t = bench(w, 5, 1)
                self.assert_correct(rc_u, u, out_u)
                # The traced run fails its correctness gate when its traced
                # and untraced repetitions differ in any deterministic count.
                self.assert_correct(rc_t, t, out_t)
                self.assertEqual(u["attempted"], t["attempted"])
                self.assertEqual(u["failed"], t["failed"])

    def test_second_seed_passes_gate(self):
        for w in SIM_WORKLOADS:
            with self.subTest(workload=w):
                self.assert_correct(*bench(w, 11, 0))

    def test_fails_without_source_tree(self):
        bdir = run.build_dir()
        lone = bdir / "lone-checkout"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "idle-closure",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lone, capture_output=True, text=True, timeout=170,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
