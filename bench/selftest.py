"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that the counts of a traced run repeat, that a deliberately
wrong expected answer is reported as a failure, that a run in which
every operation raises still reports, and fails, that one seed always
gives the same input digests, and where the exact rank fallback runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def invoke(*argv):
    """Exit code, result line and metadata of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    meta, result = (json.loads(line) for line in out.getvalue().strip().splitlines()[-2:])
    return code, result, meta["meta"]


class TinyRuns(unittest.TestCase):
    def setUp(self):
        patches = [mock.patch.object(run, "SETUP_ROUNDS", 1),
                   mock.patch.object(run, "MIN_OPS", 1)]
        for w in workloads.WORKLOADS.values():
            patches += [mock.patch.object(w, "trace_blocks", 1),
                        mock.patch.object(w, "cycle", 1)]
        for p in patches:
            p.start()
            self.addCleanup(p.stop)

    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    code, result, _ = invoke("--workload", name, "--seed", "3",
                                             "--seconds", "0", "--trace", str(trace))
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_traced_counts_repeat(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"
                  and m["name"] != "trace.overhead_share"]
        for name in ("refute", "docs"):
            runs = [invoke("--workload", name, "--seed", "4", "--seconds", "0",
                           "--trace", "1")[1]["metrics"] for _ in range(2)]
            with self.subTest(workload=name):
                self.assertEqual({k: runs[0][k] for k in counts},
                                 {k: runs[1][k] for k in counts})

    def test_flipped_answer_is_a_failure(self):
        real = gen.invariants

        def flipped(hom, primes=None):
            return {**real(hom, primes), 99: (1, ())}

        with mock.patch.object(gen, "invariants", flipped):
            code, result, _ = invoke("--workload", "verify", "--seed", "3",
                                     "--seconds", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_share"]["value"], 0)

    def test_every_op_raising_is_reported(self):
        def broken(*args):
            raise ArithmeticError("broken on purpose")

        with mock.patch.object(workloads.fracture, "verify_fracture", broken):
            code, result, meta = invoke("--workload", "verify", "--seed", "3",
                                        "--seconds", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(result["metrics"]["ok_share"]["value"], 0)
        self.assertIn("broken on purpose", json.dumps(meta["problems"]))


class Inputs(unittest.TestCase):
    def digest(self, name, seed):
        with tempfile.TemporaryDirectory() as workdir:
            return gen.digest(workloads.WORKLOADS[name](seed, workdir).setup())

    def test_one_seed_gives_one_digest(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.digest(name, 5), self.digest(name, 5))
                self.assertNotEqual(self.digest(name, 5), self.digest(name, 6))

    def test_fallback_runs_on_top_only_cubes_alone(self):
        for name in ("verify", "tfib", "refute"):
            with tempfile.TemporaryDirectory() as workdir:
                w = workloads.WORKLOADS[name](2, workdir)
                w.setup()
                for op in w.block(0):
                    tracer = spans.Tracer()
                    tracer.install()
                    try:
                        tracer.active = True
                        result = op.run()
                    finally:
                        tracer.active = False
                        tracer.uninstall()
                    calls = tracer.table().get("exact_linalg.rank_over_field", [0])[0]
                    with self.subTest(workload=name, op=op.cls):
                        self.assertIsNone(op.check(result))
                        if op.cls.startswith("top"):
                            self.assertGreaterEqual(calls, 1)
                        elif name != "refute":
                            self.assertEqual(calls, 0)


if __name__ == "__main__":
    unittest.main()
