"""Spans around the calls into each nwflow module, recorded from outside the package.

The package binds its functions with `from .x import y`, so a call site looks
the name up in the calling module.  `Tracer` therefore rebinds a traced
function in every nwflow module that holds it, and wraps `__call__` on the
field classes.  Each call records a span: id, name, parent span, start, end
and a work count taken from the call's arguments.  Spans stay in memory until
the run ends.

A span opened on a worker thread with no open span of its own (the chunk
integrations that `generate` hands to its thread pool) takes as parent the
innermost open span of the thread that opened the op's root span.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

import numpy as np

MODULES = ("cli", "experiments", "kernels", "metrics", "ode", "tasks", "velocity")

ROOT = "cli.main"


class Span(NamedTuple):
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float
    n: int


def _rows(a) -> int:
    return int(np.atleast_2d(a).shape[0])


# (span name, defining module, attribute, work count): the count names the
# call's arguments it reads and the function that turns them into a number.
FUNCTIONS = (
    ("ode.generate", "ode", "generate", None),
    ("ode.integrate", "ode", "integrate", None),
    ("ode.kde_direct_sample", "ode", "kde_direct_sample", None),
    ("kernels.softmax", "kernels", "softmax_weights", (("raw",), np.size)),
    ("kernels.nw_local_means", "kernels", "nw_local_means",
     (("queries", "points"), lambda q, p: _rows(q) * len(p))),
    ("metrics.mmd2", "metrics", "mmd2_unbiased", None),
    ("metrics.c2st", "metrics", "c2st_1nn", None),
    ("metrics.median_heuristic", "metrics", "median_heuristic", None),
    ("tasks.sample_task", "tasks", "sample_task", (("n",), int)),
    ("tasks.make_support_and_eval", "tasks", "make_support_and_eval", None),
    ("cli.write", "cli", "write_csv", (("rows",), _rows)),
    ("cli.write", "cli", "write_json", None),
    ("cli.write", "experiments", "save_report", (("report",), lambda r: len(r.rows))),
)
# Fields are traced through __call__ on their classes; the count is rows x m.
FIELD_COUNT = (("self", "x"), lambda field, x: _rows(x) * field.support.m)
METHODS = (
    ("velocity.field", "velocity", "PluginField", FIELD_COUNT),
    ("velocity.field", "velocity", "AnisotropicField", FIELD_COUNT),
)
EXPERIMENT_SPAN = "experiments.run"


class Tracer:
    """Installs and removes span wrappers; holds the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patches: list[tuple[object, str, object, object]] = []
        self.untraced: list[str] = []
        mods = {name: importlib.import_module(f"nwflow.{name}") for name in MODULES}
        targets = [(span, mods[m], attr, count) for span, m, attr, count in FUNCTIONS]
        targets += [
            (EXPERIMENT_SPAN, mods["experiments"], attr, None)
            for attr in vars(mods["experiments"])
            if attr.startswith("exp_")
        ]
        for span, mod, attr, count in targets:
            fn = getattr(mod, attr, None)
            wrapped = self._wrapper(span, fn, count) if callable(fn) else None
            if wrapped is None:
                self.untraced.append(f"{mod.__name__}.{attr}")
                continue
            for holder in mods.values():
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, name, fn, wrapped))
        for span, m, cls_name, count in METHODS:
            cls = getattr(mods[m], cls_name, None)
            fn = getattr(cls, "__call__", None)
            wrapped = self._wrapper(span, fn, count) if cls is not None else None
            if wrapped is None:
                self.untraced.append(f"nwflow.{m}.{cls_name}.__call__")
                continue
            self._patches.append((cls, "__call__", fn, wrapped))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, span: str, fn: Callable, count) -> Optional[Callable]:
        counter = None
        if count:
            names, work = count
            params = list(inspect.signature(fn).parameters)
            if not set(names) <= set(params):  # an argument was renamed: leave it untraced
                return None
            where = [(params.index(n), n) for n in names]
            counter = lambda args, kwargs: int(  # noqa: E731
                work(*(args[i] if i < len(args) else kwargs[n] for i, n in where))
            )

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
            sid = next(self._ids)
            n = counter(args, kwargs) if counter else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, span, parent, start, end, n))

        return traced

    def root(self, main: Callable) -> Callable:
        """`main` wrapped as the op's root span."""
        return self._wrapper(ROOT, main, None)

    def install(self) -> None:
        for holder, name, _, wrapped in self._patches:
            setattr(holder, name, wrapped)

    def remove(self) -> None:
        for holder, name, original, _ in self._patches:
            setattr(holder, name, original)

    @property
    def sites(self) -> int:
        return len(self._patches)


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (one of them the root)."""
    by_id = {s.id: s for s in spans}
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            kids.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    dur, self_t, calls, work = Counter(), Counter(), Counter(), Counter()
    tasks_outer = 0.0
    for s in spans:
        d = s.end - s.start
        dur[s.name] += d
        self_t[s.name] += d - _union(kids.get(s.id, []))
        calls[s.name] += 1
        work[s.name] += s.n
        parent = by_id.get(s.parent)
        if s.name.startswith("tasks.") and not (parent and parent.name.startswith("tasks.")):
            tasks_outer += d
    integrate = [(s.start, s.end) for s in spans if s.name == "ode.integrate"]
    field_s, nwlm_s = dur["velocity.field"], dur["kernels.nw_local_means"]
    return {
        "velocity.field_s": field_s,
        "velocity.field_self_s": self_t["velocity.field"],
        "velocity.field_pairs": work["velocity.field"],
        "velocity.field_pairs_per_s": work["velocity.field"] / field_s if field_s else 0.0,
        "kernels.softmax_s": dur["kernels.softmax"],
        "kernels.softmax_elems": work["kernels.softmax"],
        "kernels.nw_local_means_s": nwlm_s,
        "kernels.nw_local_means_pairs_per_s": (
            work["kernels.nw_local_means"] / nwlm_s if nwlm_s else 0.0
        ),
        "ode.field_evals": calls["velocity.field"],
        "ode.chunks": calls["ode.integrate"],
        "ode.integrate_s": dur["ode.integrate"],
        "ode.solver_self_s": self_t["ode.integrate"],
        "ode.generate_self_s": self_t["ode.generate"],
        # Mean number of chunks integrating at once: 1.0 when they run in turn.
        "ode.parallelism": dur["ode.integrate"] / _union(integrate) if integrate else 0.0,
        "ode.kde_direct_sample_s": dur["ode.kde_direct_sample"],
        "metrics.mmd2_s": dur["metrics.mmd2"],
        "metrics.mmd2_calls": calls["metrics.mmd2"],
        "metrics.c2st_s": dur["metrics.c2st"],
        "metrics.median_heuristic_s": dur["metrics.median_heuristic"],
        "tasks.sample_s": tasks_outer,
        "tasks.rows_sampled": work["tasks.sample_task"],
        "cli.write_s": dur["cli.write"],
        "cli.rows_written": work["cli.write"],
        "experiments.self_s": self_t[EXPERIMENT_SPAN],
        # Share of the root span covered by the layer spans under it.
        "trace.coverage": 1.0 - self_t[ROOT] / dur[ROOT],
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
