"""Spans and kernel counters for the traced run.

A traced round records one span per public library call the workload
makes (name, parent span, start, end, round).  It also records a
``grassmann.graph`` span around every ``GrassmannGraph`` construction,
wherever it happens (the workload's own builds, the search target, the
cross-check inside ``verify_isometric``), with a child span for each
``grassmann.enum_grassmannian`` call, so that enumeration and adjacency
can be told apart in every Grassmann graph build.  The elimination
kernels of ``qgeom.subspace`` are wrapped at every module that has bound
them, so internal calls are caught too; each wrapper counts calls and
accumulates self time (its duration minus that of nested wrapped
kernels).  Everything stays in memory until ``dump`` writes it out.
"""

from __future__ import annotations

import json
import statistics
import time

KERNELS = ("rank", "rref", "nullspace", "mat_mul")


class Tracer:
    def __init__(self, round_id: int):
        self.round_id = round_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self.calls = {k: 0 for k in KERNELS}
        self.self_s = {k: 0.0 for k in KERNELS}
        self._kstack: list[float] = []
        self.graph_pairs = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._open.pop()

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        out = []
        for i, n in enumerate(self.names):
            if n != name:
                continue
            if parent is not None:
                p = self.parents[i]
                if p < 0 or self.names[p] != parent:
                    continue
            out.append(self.ends[i] - self.starts[i])
        return out

    # -- kernel wrappers ----------------------------------------------------------

    def install(self) -> None:
        from qgeom import embed, grassmann, polar, subspace

        originals = {k: getattr(subspace, k) for k in KERNELS}
        wrapped = {k: self._kernel(k, fn) for k, fn in originals.items()}
        for mod in (subspace, grassmann, polar, embed):
            for k in KERNELS:
                if getattr(mod, k, None) is originals[k]:
                    self._patched.append((mod, k, originals[k]))
                    setattr(mod, k, wrapped[k])
        enum = grassmann.enum_grassmannian
        self._patched.append((grassmann, "enum_grassmannian", enum))
        grassmann.enum_grassmannian = self._spanned("grassmann.enumerate", enum)
        # on the class, so that every binding of GrassmannGraph is caught
        cls = grassmann.GrassmannGraph
        init = cls.__init__
        self._patched.append((cls, "__init__", init))
        cls.__init__ = self._graph_build(init)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    def _kernel(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._kstack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return wrapper

    def _graph_build(self, init):
        def wrapper(graph, *args, **kwargs):
            sid = self.begin("grassmann.graph")
            try:
                init(graph, *args, **kwargs)
            finally:
                self.end(sid)
            nv = graph.n_vertices
            self.graph_pairs += nv * (nv - 1) // 2

        return wrapper

    # -- output -------------------------------------------------------------------

    def dump(self, path, meta: dict) -> None:
        obj = {
            "meta": meta,
            "round": self.round_id,
            "kernels": {k: {"calls": self.calls[k], "self_s": self.self_s[k]}
                        for k in KERNELS},
            "graph_pairs": self.graph_pairs,
            "spans": {
                "name": self.names,
                "parent": self.parents,
                "start": self.starts,
                "end": self.ends,
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def median_and_tail(values: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest listed
    percentile with at least ten samples beyond it, else the median."""
    if not values:
        return 0.0, 0.0, 0.0
    med = statistics.median(values)
    xs = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(xs) * (1 - p / 100) >= 10:
            pos = min(len(xs) - 1, int(round(p / 100 * (len(xs) - 1))))
            return med, xs[pos], p
    return med, med, 50.0
