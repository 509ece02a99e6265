"""Self-test of the benchmark itself.

    python3 bench/selftest.py

It feeds each workload's checks corrupted results and asserts that they
fail, runs every workload once at a tiny size, checks that two traced runs
of one seed give identical counts, checks the metric names against
BENCHMARK.json, and checks that the benchmark refuses to run without the
gorlab sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import is_count  # noqa: E402
from workloads import INCONCLUSIVE, WORKLOADS, CliResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


def report(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith('{"report"'))
    return json.loads(line)["report"]


class CorruptedResultsFail(unittest.TestCase):
    """A wrong dimension, a flipped verdict or a wrong exit code is a failure."""

    @classmethod
    def setUpClass(cls):
        cls.g = run.load_gorlab()
        cls.workdir = run.OUT / f"selftest-{os.getpid()}"
        cls.workdir.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def ops(self, workload):
        return WORKLOADS[workload](self.g, 0, 0, self.workdir, tiny=True)

    def find(self, ops, prefix):
        return next(op for op in ops if op.cls.startswith(prefix))

    def assertFails(self, op, result):
        with self.assertRaises(Exception):
            op.check(result)

    def test_cli(self):
        ops = self.ops("cli-presentations")
        op = self.find(ops, "check A_2 QQ")
        res = op.run()
        self.assertIsNone(op.check(res))
        out = json.loads(res.stdout)
        self.assertFails(op, CliResult(1, res.stdout))  # wrong exit code
        self.assertFails(op, CliResult(0, json.dumps({**out, "dim": out["dim"] + 1})))
        self.assertFails(op, CliResult(0, json.dumps({**out, "gorenstein": "no"})))
        self.assertFails(op, CliResult(0, json.dumps({k: v for k, v in out.items() if k != "schema"})))

        op = self.find(ops, "check CI")
        res = op.run()
        out = json.loads(res.stdout)
        self.assertIsNone(op.check(res))
        self.assertFails(op, CliResult(0, json.dumps({**out, "gorenstein": "no"})))
        self.assertEqual(op.check(CliResult(0, json.dumps({**out, "gorenstein": "inconclusive"}))), INCONCLUSIVE)

        op = self.find(ops, "tensor A_2")
        res = op.run()
        out = json.loads(res.stdout)
        entries = list(out["tensor"]["entries"])
        entries[0], entries[1] = entries[1], entries[0]
        self.assertFails(op, CliResult(0, json.dumps({**out, "tensor": {**out["tensor"], "entries": entries}})))

        op = self.find(ops, "points")
        res = op.run()
        self.assertIsNone(op.check(res))
        out = json.loads(res.stdout)
        self.assertFails(op, CliResult(0, json.dumps({**out, "hilbert": [1, 3, 1]})))

        for op in (o for o in ops if o.kind == "invalid"):
            res = op.run()
            self.assertIsNone(op.check(res))
            self.assertFails(op, CliResult(0, res.stdout))

    def test_frobenius(self):
        ops = self.ops("frobenius-corpus")
        sums = [op for op in ops if op.kind == "connected_sum"]
        first, second = sums[0].run(), sums[1].run()
        self.assertNotEqual(first.oa.dim, second.oa.dim)
        self.assertIsNone(sums[1].check(second))
        self.assertFails(sums[1], first)  # wrong dimension
        for kind in ("is_nondegenerate", "augmentation_check", "isotropy_check"):
            op = next(o for o in ops if o.kind == kind)
            self.assertIsNone(op.check(op.run()))
            self.assertFails(op, False)  # flipped verdict
        op = next(o for o in ops if o.kind == "decompose_augmented")
        dec = op.run()
        self.assertIsNone(op.check(dec))
        self.assertFails(op, dataclasses.replace(dec, lam=dec.lam + 1))

    def test_dense(self):
        ops = self.ops("dense-gfp")
        op = self.find(ops, "gorenstein_test CI")
        rep = op.run()
        self.assertIsNone(op.check(rep))
        self.assertFails(op, dataclasses.replace(rep, status="not_gorenstein"))
        op = self.find(ops, "gorenstein_test non-Gorenstein")
        rep = op.run()
        self.assertIsNone(op.check(rep))
        self.assertFails(op, dataclasses.replace(rep, status="oriented"))
        op = self.find(ops, "radical")
        W = op.run()
        self.assertIsNone(op.check(W))
        self.assertFails(op, self.g.algebra.Subspace(W.ambient_dim, W.rows[1:]))  # wrong dimension
        op = self.find(ops, "one_generic")
        self.assertIsNone(op.check(op.run()))
        op = self.find(ops, "strassen_commuting")
        self.assertIsNone(op.check(op.run()))
        self.assertFails(op, False)


class Estimates(unittest.TestCase):
    """Times are scaled by the reference samples around them, and the
    latency quantiles are Harrell-Davis estimates."""

    def test_scaled(self):
        nominal = run.REFERENCE_NOMINAL_S
        steady = [(2 * nominal, 1)] * 4
        self.assertEqual(run.scaled([0.5, 0.25, 1.0], steady), [0.25, 0.125, 0.5])
        # samples of 2 and 4 loops' worth on a host twice as slow
        [t] = run.scaled([0.3], [(2 * nominal, 1), (4 * nominal, 2)])
        self.assertAlmostEqual(t, 0.15)

    def test_quantile(self):
        # symmetric data: the estimate is the middle value
        self.assertAlmostEqual(run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0)
        values = [float(x) for x in range(1, 201)]
        self.assertAlmostEqual(run.quantile(values, 0.9), 180.9, delta=0.5)
        self.assertTrue(min(values) < run.quantile(values, 0.9) < max(values))

    def test_sample_reference(self):
        spent, loops = run.sample_reference(0.0)
        self.assertEqual(loops, run.REFERENCE_MIN_LOOPS)
        # after a 0.5 s op the reference runs for at least 0.05 s
        spent, loops = run.sample_reference(0.5)
        self.assertGreaterEqual(spent, run.REFERENCE_SHARE * 0.5)
        self.assertGreater(loops, run.REFERENCE_MIN_LOOPS)


class TinyRuns(unittest.TestCase):
    """Every workload runs once at a tiny size, untraced and traced."""

    def test_untraced(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = last_json(proc.stdout)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"], report(proc.stdout)["failures"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], run.MIN_OPS)
                self.assertEqual(set(res["metrics"]), names)
                meta = report(proc.stdout)["metadata"]
                self.assertEqual(set(meta), {"python", "nproc", "platform", "git_commit", "seed", "src_gorlab_lines"})

    def test_traced_counts_repeat(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for _ in range(2):
                    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = last_json(proc.stdout)
                    self.assertTrue(res["correct"])
                    self.assertEqual(set(res["metrics"]), names)
                    self.assertTrue(report(proc.stdout)["counts_repeat"])
                    results.append(res["metrics"])
                counts = [{k: v["value"] for k, v in m.items() if is_count(k)} for m in results]
                self.assertEqual(counts[0], counts[1])


class MissingSources(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = run.OUT / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = run_bench(
                "--workload", "dense-gfp", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=bare, script=bare / "bench" / "run.py",
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
