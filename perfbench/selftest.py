#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds the driver first if needed and
takes about a minute. It checks that:

* a tiny run of each workload, untraced and traced, prints every metric
  BENCHMARK.json names, each with its unit;
* the correctness gate trips on a diverged replica: the driver run with
  --diverge overwrites one replica's value after the workload, and must
  exit with status 3 without printing a result;
* on seq-sim the crypto counts repeat exactly for a given seed, and match
  the ledger's 13 TSS stamps and 16 RSA signs per 3-party run.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the harness under test)

WORKLOADS = [w["name"] for w in
             json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]


def bench(workload, trace, seed=7, seconds=1):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300, cwd=ROOT)
    return done.returncode, done.stdout.strip().splitlines()


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    status, lines = bench(workload, trace)
                    self.assertEqual(status, 0)
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    for name, unit in run.expected_metrics(trace).items():
                        self.assertIn(name, metrics)
                        self.assertEqual(metrics[name]["unit"], unit)

    def test_gate_trips_on_a_diverged_replica(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = subprocess.run(
                    [run.BINARY, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", "0", "--diverge",
                     "--workdir", os.path.join(run.BUILD, "work")],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    timeout=300)
                self.assertEqual(done.returncode, 3)
                self.assertEqual(done.stdout, "")
                self.assertIn("correctness gate failed", done.stderr)

    def test_sim_crypto_counts_repeat_for_a_seed(self):
        names = ("crypto.tss_stamps_per_change",
                 "crypto.signed_msgs_per_change",
                 "crypto.rsa_signs_per_change")
        seen = []
        for _ in range(2):
            status, lines = bench("seq-sim", 1, seed=11)
            self.assertEqual(status, 0)
            metrics = json.loads(lines[-1])["metrics"]
            seen.append([metrics[n]["value"] for n in names])
        self.assertEqual(seen[0], seen[1])
        # 13 evidence records per 3-party run, each TSS-stamped; 2 propose
        # and 2 respond envelopes; 1 + 2 protocol signatures + 13 stamps.
        self.assertEqual(seen[0], [13, 4, 16])


if __name__ == "__main__":
    unittest.main()
