"""Known-answer benchmark for the fracturecube engine.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads: verify, tfib, refute, docs (see workloads.py). One process
runs one workload as a closed loop with a single client on one thread.
Inputs come from --seed, every answer is checked against the one known
from the generator, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The line before it
holds metadata (versions, input digests, sample counts, failures).

--trace 0 measures the end-to-end metrics for --seconds seconds (at
least MIN_OPS operations), and stops only after a whole input cycle of
the workload, so every run measures the same mix. --trace 1 runs a
fixed number of blocks, untraced and with spans around every call into
the package in turn, TRACE_ROUNDS times, and reports the per-layer
metrics summed over the traced passes; its spans go to .bench_out/.

--workload all runs every workload in a fresh process, traced and
untraced, and prints every metric by name with its unit.

Exit status: 0 when every answer was right (operations that raised are
counted in "failed" but do not change the status), 1 when an answer was
wrong or no operation completed, 2 when the package cannot be found or
the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("verify", "tfib", "refute", "docs")
SETUP_ROUNDS = 3
MIN_OPS = 100      # ten samples beyond the 90th percentile
HARD_CAP_S = 120   # a run never measures longer than this
TRACE_ROUNDS = 3   # untraced and traced passes of a traced run, alternating
OP_LIMIT_S = 30    # one operation with its check; beyond this it is an error

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "holim.homotopy_limit.calls": "count",
    "holim.homotopy_limit.self_s": "s",
    "holim.homotopy_limit.out_rank": "rank",
    "holim.total_fiber.self_s": "s",
    "holim.tfib_direction_cube.self_s": "s",
    "posets.FinitePoset.strict_chains.calls": "count",
    "posets.FinitePoset.strict_chains.self_s": "s",
    "posets.certify_initial.self_s": "s",
    "fracture.build_fracture_cube.self_s": "s",
    "fracture.comparison_map.self_s": "s",
    "fracture.verify_fracture.self_s": "s",
    "exact_linalg.integer_homology_at.calls": "count",
    "exact_linalg.integer_homology_at.self_s": "s",
    "exact_linalg.kernel_basis.self_s": "s",
    "exact_linalg.solve_in_span.self_s": "s",
    "exact_linalg.snf_diagonal.self_s": "s",
    "exact_linalg.smith_normal_form.self_s": "s",
    "exact_linalg.rank_lower_bound.calls": "count",
    "exact_linalg.rank_lower_bound.self_s": "s",
    "exact_linalg.rank_over_field.calls": "count",
    "exact_linalg.rank_over_field.self_s": "s",
    "exact_linalg.rank_over_field.max_rows": "rows",
    "exact_linalg.fallback_share": "ratio",
    "sorted_complex.is_acyclic.calls": "count",
    "sorted_complex.is_acyclic.self_s": "s",
    "sorted_complex.is_acyclic.input_rank": "rank",
    "sorted_complex.homology_p_local.self_s": "s",
    "sorted_complex.cone.calls": "count",
    "sorted_complex.cone.self_s": "s",
    "sorted_complex.shift.calls": "count",
    "sorted_complex.shift.self_s": "s",
    "sorted_complex.apply_localization.self_s": "s",
    "cube_categories.fracture_diagram.self_s": "s",
    "cube_categories.roundtrip_check.self_s": "s",
    "cube_categories.validate_fracture_object.self_s": "s",
    "cube_categories.split_fracture_object.self_s": "s",
    "cube_categories.glue_fracture_object.self_s": "s",
    "serialize.unwrap.self_s": "s",
    "serialize.wrap.self_s": "s",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "exact_linalg.self_s": "s",
    "sorted_complex.self_s": "s",
    "posets.self_s": "s",
    "holim.self_s": "s",
    "fracture.self_s": "s",
    "cube_categories.self_s": "s",
    "serialize.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank; len - rank values lie beyond it."""
    rank = min(len(sorted_values), max(1, math.ceil(len(sorted_values) * q - 1e-9)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Tally:
    """Outcome of every timed operation, by class."""

    def __init__(self):
        self.samples = []   # (cls, seconds, status) with status ok|wrong|error
        self.problems = {}  # first message per (status, cls)

    def record(self, cls, seconds, status, message=None):
        self.samples.append((cls, seconds, status))
        if message is not None:
            self.problems.setdefault(f"{status} {cls}", message)

    def count(self, status):
        return sum(1 for s in self.samples if s[2] == status)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation and check ran past {OP_LIMIT_S} s")


def run_op(op, tally, tracer=None):
    """Time one operation, then check its answer outside the timed region.

    An operation that raises, or that with its check runs past
    OP_LIMIT_S, is recorded as an error; the run goes on.
    """
    signal.alarm(OP_LIMIT_S)
    seconds = 0.0
    try:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.run()
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        bad = op.check(result)
    except Exception as exc:  # the harness keeps going and reports it
        tally.record(op.cls, seconds, "error", f"{type(exc).__name__}: {exc}"[:300])
        return seconds
    finally:
        signal.alarm(0)
    tally.record(op.cls, seconds, "ok" if bad is None else "wrong",
                 None if bad is None else bad[:300])
    return seconds


def set_up(workloads, gen, name, seed, workdir):
    """SETUP_ROUNDS full set-ups (generation, documents, one warm-up block)."""
    times, digests = [], set()
    warm = Tally()
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        w = workloads.WORKLOADS[name](seed, workdir)
        digests.add(gen.digest(w.setup()))
        for op in w.block(0):
            run_op(op, warm)
        times.append(time.perf_counter() - start)
    if len(digests) != 1:
        raise RuntimeError("set-up is not deterministic for one seed")
    return w, times, digests.pop(), warm


def measure(w, seconds):
    """Whole cycles of w.cycle blocks until seconds and MIN_OPS are reached."""
    tally = Tally()
    start = time.perf_counter()
    blocks = 0
    while True:
        blocks += 1
        for op in w.block(blocks):
            run_op(op, tally)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (blocks % w.cycle == 0 and elapsed >= seconds
                                     and len(tally.samples) >= MIN_OPS):
            return tally, blocks, elapsed


def end_to_end(tally, setup_s):
    """Latencies are over the operations that completed, or over all of
    them when every one raised."""
    done = sorted(s for _, s, status in tally.samples if status != "error")
    ok = tally.count("ok")
    if not done:
        done = sorted(s for _, s, _ in tally.samples)
    p50, _ = nearest_rank(done, 0.5)
    p90, beyond = nearest_rank(done, 0.9)
    busy = sum(s for _, s, _ in tally.samples)
    values = {
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "throughput_ops_s": ok / busy,
        "ok_share": ok / len(tally.samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, {"samples": len(done), "beyond_p90": beyond}


def per_layer(tracer, io_bytes, untraced_s, traced_s):
    table = tracer.table()
    counters = dict(tracer.counters)
    counters["serialize.bytes_in"], counters["serialize.bytes_out"] = io_bytes
    values = {}
    for name in PER_LAYER:
        func, _, field = name.rpartition(".")
        if name in counters:
            values[name] = counters[name]
        elif field == "calls":
            values[name] = table.get(func, [0, 0, 0])[0]
        elif field == "self_s" and func in table:
            values[name] = table[func][2]
        elif field == "self_s":  # a module total
            values[name] = sum(row[2] for f, row in table.items()
                               if f.startswith(func + "."))
        else:
            values[name] = 0
    base = values["exact_linalg.rank_lower_bound.calls"]
    values["exact_linalg.fallback_share"] = (
        values["exact_linalg.rank_over_field.calls"] / base if base else 0.0)
    values["trace.overhead_share"] = traced_s / untraced_s
    top = sorted(table.items(), key=lambda kv: -kv[1][2])[:12]
    return values, {"fallback_base": base,
                    "top_self_s": {f: round(row[2], 6) for f, row in top}}


def traced_run(w, tracer_cls, seed):
    """The same fixed blocks, untraced and traced in turn, TRACE_ROUNDS times.

    The overhead ratio compares the median pass of each kind, so drift
    over the run cancels. Spans are written at the end.
    """
    ops = [op for i in range(1, 1 + w.trace_blocks) for op in w.block(i)]
    plain, tally = Tally(), Tally()
    tracer = tracer_cls()
    untraced, traced, io_bytes = [], [], [0, 0]
    for _ in range(TRACE_ROUNDS):
        untraced.append(sum(run_op(op, plain) for op in ops))
        seen = (w.bytes_in, w.bytes_out)
        tracer.install()
        try:
            traced.append(sum(run_op(op, tally, tracer) for op in ops))
        finally:
            tracer.uninstall()
        io_bytes[0] += w.bytes_in - seen[0]
        io_bytes[1] += w.bytes_out - seen[1]
    values, info = per_layer(tracer, io_bytes, statistics.median(untraced),
                             statistics.median(traced))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-{seed}.json"
    tracer.write(path)
    info.update({"blocks": w.trace_blocks, "rounds": TRACE_ROUNDS,
                 "spans": len(tracer.spans),
                 "spans_file": str(path.relative_to(ROOT))})
    for problem in (plain, tally):
        for key, msg in problem.problems.items():
            info.setdefault("problems", {}).setdefault(key, msg)
    return plain, tally, values, info


def git_commit():
    # the ceiling keeps git from using a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "fracturecube").glob("*.py")))


def emit(correct, attempted, failed, metrics, units, meta):
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def run_workload(args):
    if not (SRC / "fracturecube" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # the command line cap on cube dimension stays at its default
    os.environ.pop("FRACTURE_MAX_T", None)
    signal.signal(signal.SIGALRM, _alarm)
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.perf_counter()
    import numpy
    import fracturecube
    import gen
    import spans
    import workloads
    import_s = time.perf_counter() - start

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as workdir:
        w, setup_times, digest, warm = set_up(workloads, gen, args.workload,
                                               args.seed, workdir)
        # keep the collector from rescanning the inputs during timing
        gc.collect()
        gc.freeze()
        meta = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "fracturecube": fracturecube.__version__, "nproc": os.cpu_count(),
            "git_commit": git_commit(), "src_lines": src_lines(),
            "input_digest": digest, "import_s": round(import_s, 6),
            "setup_rounds_s": [round(t, 6) for t in setup_times],
        }
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            plain, tally, values, info = traced_run(w, spans.Tracer, args.seed)
            meta.update(info)
            wrong = plain.count("wrong")
            units = PER_LAYER
        else:
            tally, blocks, elapsed = measure(w, args.seconds)
            values, info = end_to_end(tally, setup_s)
            by_class = {}
            for cls, s, _ in tally.samples:
                by_class.setdefault(cls, []).append(s)
            meta.update(info)
            meta.update({
                "blocks": blocks, "elapsed_s": round(elapsed, 3),
                "errors": tally.count("error"), "wrong": tally.count("wrong"),
                "class_median_ms": {c: round(statistics.median(v) * 1e3, 3)
                                    for c, v in by_class.items()},
                "problems": {**warm.problems, **tally.problems},
            })
            wrong = 0
            units = END_TO_END
        wrong += warm.count("wrong") + tally.count("wrong")
        failed = tally.count("wrong") + tally.count("error")
    correct = wrong == 0 and failed < len(tally.samples)
    emit(correct, len(tally.samples), failed, values, units, meta)
    return 0 if correct else 1


def run_all(args):
    """Every workload in a fresh process, untraced and traced; one table."""
    status = 0
    for name in NAMES:
        for flag in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(flag)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{name} trace={flag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                if not lines:
                    continue
            result = json.loads(lines[-1])
            print(f"# {name} trace={flag} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"{name:8s} {metric:48s} {v['value']:>16.6g} {v['unit']}")
    return status


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
