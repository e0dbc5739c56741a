"""In-memory span tracer that wraps a package's public functions from outside.

The mvcreg modules import each other with ``from .x import y``, so a function
is reachable through every module namespace that imported it.  ``install``
finds the package's public module-level functions by name at run time and
replaces every binding of each one, in every module, by a single wrapper that
records a span.  Nothing in the package itself is edited, a function that no
longer exists simply records no calls, and a new public function shows up in
the span file without any change here.

Spans are kept in memory as ``(id, parent_id, name, start, end)`` and written
out at the end; self time is a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from collections import defaultdict


def _fourth_moment_counters(args, kwargs, result):
    n, d = (args[0] if args else kwargs["data"]).x.shape
    # one multiply-add per (row, i, k, l, q) term of the raw d^4 sum
    return {"flops_computed": 2 * n * d**4}


def _regression_moment_counters(args, kwargs, result):
    n, d = (args[0] if args else kwargs["data"]).x.shape
    # X'AX has N*d^2 multiply-adds and X'Ay has N*d
    return {"flops_computed": 2 * n * d * (d + 1)}


def _parse_counters(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text)}  # the CSV is ASCII, so characters are bytes


def _render_counters(args, kwargs, result):
    return {"bytes": len(result)}


def _study_counters(args, kwargs, result):
    return {
        "reps": sum(pt.rep_count for pt in result.points),
        "failed_reps": sum(pt.failures for pt in result.points),
    }


#: counters recorded from a call's arguments and result, by span name; each
#: hook returns ``{counter_name: increment}``.  Counts derived from array sizes
#: are labelled "computed": they ignore caches and what BLAS really does.
COUNTER_HOOKS = {
    "moments.weighted_fourth_moment": _fourth_moment_counters,
    "moments.component_regression_moments": _regression_moment_counters,
    "dataio.parse_csv_text": _parse_counters,
    "dataio.render_csv": _render_counters,
    "montecarlo.run_study": _study_counters,
}


class Tracer:
    """Records nested spans per thread, plus counters, entirely in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.hook_errors: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records one span named ``name`` per call."""
        hook = COUNTER_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                self._count(name, hook, args, kwargs, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name, hook, args, kwargs, result):
        # a later version of the package may change a signature; losing one
        # counter must not lose the whole traced run, so record and go on
        try:
            increments = hook(args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - reported in hook_errors
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        for key, value in increments.items():
            self.counters[f"{name}.{key}"] += value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        return out

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, name, round(start - t0, 9), round(end - t0, 9)]
                for sid, parent, name, start, end in self.spans
            ],
            "counters": dict(self.counters),
            "hook_errors": self.hook_errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def public_functions(package_name: str) -> dict[str, object]:
    """Public module-level functions defined in the package, keyed by span name.

    The span name is ``<defining module's last dotted part>.<function name>``.
    """
    package = importlib.import_module(package_name)
    found = {}
    for module in _modules(package):
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue  # imported binding; found again in its own module
            found[f"{module.__name__.rsplit('.', 1)[-1]}.{value.__name__}"] = value
    return found


def _modules(package):
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        modules.append(importlib.import_module(info.name))
    return modules


def install(tracer: Tracer, package_name: str):
    """Wrap every public function at each of its bindings; return an undo callable."""
    package = importlib.import_module(package_name)
    originals = public_functions(package_name)
    wrappers = {id(fn): tracer.wrap(name, fn) for name, fn in originals.items()}
    patched = []
    for module in _modules(package):
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                namespace[attr] = wrapper
                patched.append((namespace, attr, value))

    def uninstall():
        for namespace, attr, value in patched:
            namespace[attr] = value

    return uninstall
