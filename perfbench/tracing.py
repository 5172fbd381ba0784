"""In-memory spans and closure-point counters for the traced benchmark run.

The traced run wraps dlgeom's public functions at every module attribute
that refers to them (``dlgeom.mannheim.darboux_frame``,
``dlgeom.ruled.cumulative_integrate``, ...), because callers resolve the
name in their own module.  The untraced run never imports this wrapping,
so it measures the package untouched.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter

#: functions traced, keyed by the span name used in the per-layer metrics
TRACED = {
    "ruled.arclength_reparametrize": ("dlgeom.ruled", "arclength_reparametrize"),
    "ruled.darboux_frame": ("dlgeom.ruled", "darboux_frame"),
    "ruled.timelike_invariants": ("dlgeom.ruled", "timelike_invariants"),
    "ruled.reconstruct_from_invariants": ("dlgeom.ruled", "reconstruct_from_invariants"),
    "mannheim.construct_offset": ("dlgeom.mannheim", "construct_offset"),
    "mannheim.verify_offset": ("dlgeom.mannheim", "verify_offset"),
    "numerics.integrate": ("dlgeom.numerics", "integrate"),
    "numerics.cumulative_integrate": ("dlgeom.numerics", "cumulative_integrate"),
    "numerics.rk4_frame_step": ("dlgeom.numerics", "rk4_frame_step"),
    "cli.main": ("dlgeom.cli", "main"),
    "cli.load_surface_spec": ("dlgeom.cli", "load_surface_spec"),
    "cli.load_profile": ("dlgeom.cli", "load_profile"),
}

#: deepest dual nesting counted separately; deeper points count at this order
MAX_ORDER = 3


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            record = [name, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self, post: dict) -> None:
        """Replace every dlgeom module attribute bound to a traced function.

        ``post`` maps a span name to a function applied to the traced
        function's return value (used to count points of loaded specs).
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dlgeom" or n.startswith("dlgeom."))]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.span(name, original)
            if name in post:
                wrapped = _post(wrapped, post[name])
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the time its direct child
        spans cover; children of one span never overlap in this
        single-threaded run, so that time is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _post(fn, post):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return post(fn(*args, **kwargs))

    return wrapped


class PointCounter:
    """Counts closure evaluations by nesting depth of the dual argument.

    A point is (order, real parameter); ``order`` is how many dual-number
    layers wrap the real parameter.  A call on an array parameter counts
    every element it carries.
    """

    def __init__(self, dual_type):
        self.dual_type = dual_type
        self.points: Counter = Counter()
        self.distinct: set = set()

    def wrap(self, fn):
        dual_type, points, distinct = self.dual_type, self.points, self.distinct

        def counted(u):
            x, order = u, 0
            while isinstance(x, dual_type):
                x, order = x.re, order + 1
            order = min(order, MAX_ORDER)
            if isinstance(x, float):
                points[order] += 1
                distinct.add((order, x))
            else:
                values = [float(v) for v in getattr(x, "flat", [x])]
                points[order] += len(values)
                distinct.update((order, v) for v in values)
            return fn(u)

        return counted

    def spec(self, spec):
        """The ruled-surface spec with both of its closures counted."""
        return dataclasses.replace(spec, indicatrix=self.wrap(spec.indicatrix),
                                   base_curve=self.wrap(spec.base_curve))

    def profile(self, profile):
        """The invariant profile with its three closures counted."""
        return dataclasses.replace(profile, gamma=self.wrap(profile.gamma),
                                   delta=self.wrap(profile.delta),
                                   Delta=self.wrap(profile.Delta))

    def metrics(self) -> dict[str, int | float]:
        total = sum(self.points.values())
        out = {f"curve.points.order{k}": self.points[k] for k in range(MAX_ORDER + 1)}
        out["curve.points.distinct_frac"] = len(self.distinct) / total if total else 0.0
        return out
