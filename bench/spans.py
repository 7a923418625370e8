"""Spans around the calls into each module of the package.

The package's modules import each other's names with ``from .x import
y``, so a function has one binding in its defining module and one in
every module that imports it. ``Tracer.install`` replaces every binding
of each public function (and the listed methods, on their class) with
a wrapper that records a span while the tracer is active, and
``uninstall`` puts the originals back.

Spans are kept in memory as (name, parent, start_ns, end_ns, child_ns)
and written out at the end. A span's self time is its duration minus
the durations of its direct children, which nest inside it because
the benchmark runs one thread. Private helpers are not wrapped, so
their time counts toward the public function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

PACKAGE = "fracturecube"
MODULES = ("exact_linalg", "sorted_complex", "posets", "holim", "fracture",
           "cube_categories", "serialize", "cli")
METHODS = {"posets": ("FinitePoset.strict_chains",)}


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _out_rank(counters, args, result):
    _add(counters, "holim.homotopy_limit.out_rank", result.complex.total_rank())


def _input_rank(counters, args, result):
    _add(counters, "sorted_complex.is_acyclic.input_rank", args[0].total_rank())


def _max_rows(counters, args, result):
    key = "exact_linalg.rank_over_field.max_rows"
    counters[key] = max(counters.get(key, 0), args[0].rows)


OBSERVERS = {
    "holim.homotopy_limit": _out_rank,
    "sorted_complex.is_acyclic": _input_rank,
    "exact_linalg.rank_over_field": _max_rows,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patches = []

    # --- wrappers -----------------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        observe = OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [len(spans), 0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, parent, start, end, frame[1])
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def install(self):
        package = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for short, names in METHODS.items():
            for dotted in names:
                cls_name, meth = dotted.split(".")
                cls = getattr(modules[short], cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{short}.{dotted}", orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    # --- results ------------------------------------------------------------------

    def table(self):
        """name -> [calls, total_s, self_s] over the recorded spans."""
        out = {}
        for name, _, start, end, child in self.spans:
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return {name: [c, t / 1e9, s / 1e9] for name, (c, t, s) in out.items()}

    def write(self, path):
        """Write every span, names interned, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][2] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "fields": ["name", "parent", "start_ns", "end_ns", "child_ns"],
                       "spans": [[index[n], p, s - base, e - base, c]
                                 for n, p, s, e, c in self.spans]},
                      fh, separators=(",", ":"))
